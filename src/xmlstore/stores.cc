#include "xmlstore/stores.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/log.h"
#include "xmlstore/xml.h"

namespace invarnetx::xmlstore {
namespace {

// One debug line per store round-trip, one warn per failure: store I/O is
// rare and operator-visible, so every call is worth a structured record.
void LogStoreOp(const char* op, const std::string& path, size_t records,
                const Status& status) {
  if (!status.ok()) {
    INVARNETX_OBS_LOG(obs::LogLevel::kWarn, "xml store operation failed",
                      {{"op", op},
                       {"path", path},
                       {"error", status.ToString()}});
    return;
  }
  INVARNETX_OBS_LOG(obs::LogLevel::kDebug, "xml store operation",
                    {{"op", op}, {"path", path}, {"records", records}});
}

std::string DoubleToStr(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Result<double> StrToDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) return Status::Corruption("bad double: " + s);
  return v;
}

Result<int> StrToInt(const std::string& s) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str()) return Status::Corruption("bad int: " + s);
  return static_cast<int>(v);
}

namespace {

std::string JoinDoubles(const std::vector<double>& v) {
  std::ostringstream out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << ' ';
    out << DoubleToStr(v[i]);
  }
  return out.str();
}

Result<std::vector<double>> SplitDoubles(const std::string& s) {
  std::vector<double> out;
  std::istringstream in(s);
  std::string token;
  while (in >> token) {
    Result<double> v = StrToDouble(token);
    if (!v.ok()) return v.status();
    out.push_back(v.value());
  }
  return out;
}

}  // namespace

Status SaveArimaModels(const std::string& path,
                       const std::vector<ArimaModelRecord>& records) {
  XmlNode root;
  root.name = "arima_models";
  for (const ArimaModelRecord& rec : records) {
    XmlNode& node = root.AddChild("model");
    node.SetAttr("p", std::to_string(rec.p));
    node.SetAttr("d", std::to_string(rec.d));
    node.SetAttr("q", std::to_string(rec.q));
    node.SetAttr("ip", rec.ip);
    node.SetAttr("type", rec.workload);
    node.SetAttr("intercept", DoubleToStr(rec.intercept));
    node.SetAttr("sigma2", DoubleToStr(rec.sigma2));
    node.SetAttr("res_min", DoubleToStr(rec.residual_min));
    node.SetAttr("res_max", DoubleToStr(rec.residual_max));
    node.SetAttr("res_p95", DoubleToStr(rec.residual_p95));
    node.AddChild("ar").text = JoinDoubles(rec.ar);
    node.AddChild("ma").text = JoinDoubles(rec.ma);
  }
  const Status status = WriteXmlFile(path, root);
  LogStoreOp("save_models", path, records.size(), status);
  return status;
}

Result<std::vector<ArimaModelRecord>> LoadArimaModels(
    const std::string& path) {
  Result<XmlNode> doc = ReadXmlFile(path);
  if (!doc.ok()) return doc.status();
  if (doc.value().name != "arima_models") {
    return Status::Corruption("expected <arima_models> root");
  }
  std::vector<ArimaModelRecord> out;
  for (const XmlNode* node : doc.value().Children("model")) {
    ArimaModelRecord rec;
    Result<int> p = StrToInt(node->Attr("p"));
    Result<int> d = StrToInt(node->Attr("d"));
    Result<int> q = StrToInt(node->Attr("q"));
    if (!p.ok()) return p.status();
    if (!d.ok()) return d.status();
    if (!q.ok()) return q.status();
    rec.p = p.value();
    rec.d = d.value();
    rec.q = q.value();
    rec.ip = node->Attr("ip");
    rec.workload = node->Attr("type");
    Result<double> intercept = StrToDouble(node->Attr("intercept"));
    Result<double> sigma2 = StrToDouble(node->Attr("sigma2"));
    Result<double> res_min = StrToDouble(node->Attr("res_min"));
    Result<double> res_max = StrToDouble(node->Attr("res_max"));
    Result<double> res_p95 = StrToDouble(node->Attr("res_p95"));
    if (!intercept.ok()) return intercept.status();
    if (!sigma2.ok()) return sigma2.status();
    if (!res_min.ok()) return res_min.status();
    if (!res_max.ok()) return res_max.status();
    if (!res_p95.ok()) return res_p95.status();
    rec.intercept = intercept.value();
    rec.sigma2 = sigma2.value();
    rec.residual_min = res_min.value();
    rec.residual_max = res_max.value();
    rec.residual_p95 = res_p95.value();
    const XmlNode* ar = node->Child("ar");
    const XmlNode* ma = node->Child("ma");
    if (ar == nullptr || ma == nullptr) {
      return Status::Corruption("model missing <ar>/<ma>");
    }
    Result<std::vector<double>> ar_v = SplitDoubles(ar->text);
    Result<std::vector<double>> ma_v = SplitDoubles(ma->text);
    if (!ar_v.ok()) return ar_v.status();
    if (!ma_v.ok()) return ma_v.status();
    rec.ar = std::move(ar_v.value());
    rec.ma = std::move(ma_v.value());
    if (rec.ar.size() != static_cast<size_t>(rec.p) ||
        rec.ma.size() != static_cast<size_t>(rec.q)) {
      return Status::Corruption("coefficient count mismatch in model record");
    }
    out.push_back(std::move(rec));
  }
  LogStoreOp("load_models", path, out.size(), Status::Ok());
  return out;
}

Status SaveInvariantSets(const std::string& path,
                         const std::vector<InvariantSetRecord>& records) {
  XmlNode root;
  root.name = "invariant_sets";
  for (const InvariantSetRecord& rec : records) {
    XmlNode& node = root.AddChild("invariants");
    node.SetAttr("ip", rec.ip);
    node.SetAttr("type", rec.workload);
    node.SetAttr("num_metrics", std::to_string(rec.num_metrics));
    for (const InvariantEntry& e : rec.entries) {
      XmlNode& child = node.AddChild("pair");
      child.SetAttr("a", std::to_string(e.metric_a));
      child.SetAttr("b", std::to_string(e.metric_b));
      child.SetAttr("value", DoubleToStr(e.value));
    }
  }
  const Status status = WriteXmlFile(path, root);
  LogStoreOp("save_invariants", path, records.size(), status);
  return status;
}

Result<std::vector<InvariantSetRecord>> LoadInvariantSets(
    const std::string& path) {
  Result<XmlNode> doc = ReadXmlFile(path);
  if (!doc.ok()) return doc.status();
  if (doc.value().name != "invariant_sets") {
    return Status::Corruption("expected <invariant_sets> root");
  }
  std::vector<InvariantSetRecord> out;
  for (const XmlNode* node : doc.value().Children("invariants")) {
    InvariantSetRecord rec;
    rec.ip = node->Attr("ip");
    rec.workload = node->Attr("type");
    Result<int> nm = StrToInt(node->Attr("num_metrics"));
    if (!nm.ok()) return nm.status();
    rec.num_metrics = nm.value();
    for (const XmlNode* pair : node->Children("pair")) {
      Result<int> a = StrToInt(pair->Attr("a"));
      Result<int> b = StrToInt(pair->Attr("b"));
      Result<double> v = StrToDouble(pair->Attr("value"));
      if (!a.ok()) return a.status();
      if (!b.ok()) return b.status();
      if (!v.ok()) return v.status();
      rec.entries.push_back(InvariantEntry{a.value(), b.value(), v.value()});
    }
    out.push_back(std::move(rec));
  }
  LogStoreOp("load_invariants", path, out.size(), Status::Ok());
  return out;
}

Status SaveSignatures(const std::string& path,
                      const std::vector<SignatureRecord>& records) {
  XmlNode root;
  root.name = "signatures";
  for (const SignatureRecord& rec : records) {
    XmlNode& node = root.AddChild("signature");
    node.SetAttr("problem", rec.problem);
    node.SetAttr("ip", rec.ip);
    node.SetAttr("type", rec.workload);
    std::string bits;
    bits.reserve(rec.bits.size());
    for (uint8_t b : rec.bits) bits += b ? '1' : '0';
    node.text = bits;
  }
  const Status status = WriteXmlFile(path, root);
  LogStoreOp("save_signatures", path, records.size(), status);
  return status;
}

Result<std::vector<SignatureRecord>> LoadSignatures(const std::string& path) {
  Result<XmlNode> doc = ReadXmlFile(path);
  if (!doc.ok()) return doc.status();
  if (doc.value().name != "signatures") {
    return Status::Corruption("expected <signatures> root");
  }
  std::vector<SignatureRecord> out;
  for (const XmlNode* node : doc.value().Children("signature")) {
    SignatureRecord rec;
    rec.problem = node->Attr("problem");
    rec.ip = node->Attr("ip");
    rec.workload = node->Attr("type");
    for (char c : node->text) {
      if (c == '0') rec.bits.push_back(0);
      else if (c == '1') rec.bits.push_back(1);
      else return Status::Corruption("signature bits must be 0/1");
    }
    out.push_back(std::move(rec));
  }
  LogStoreOp("load_signatures", path, out.size(), Status::Ok());
  return out;
}

}  // namespace invarnetx::xmlstore
