#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "timeseries/arima.h"
#include "xmlstore/stores.h"
#include "xmlstore/xml.h"

namespace invarnetx::xmlstore {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// -------------------------------------------------------------- XmlNode --

TEST(XmlNodeTest, AttrAndChildLookup) {
  XmlNode node;
  node.name = "root";
  node.SetAttr("k", "v");
  node.AddChild("a").SetAttr("x", "1");
  node.AddChild("b");
  node.AddChild("a").SetAttr("x", "2");
  EXPECT_EQ(node.Attr("k"), "v");
  EXPECT_EQ(node.Attr("missing"), "");
  ASSERT_NE(node.Child("a"), nullptr);
  EXPECT_EQ(node.Child("a")->Attr("x"), "1");
  EXPECT_EQ(node.Child("missing"), nullptr);
  EXPECT_EQ(node.Children("a").size(), 2u);
}

TEST(XmlNodeTest, SetAttrOverwrites) {
  XmlNode node;
  node.SetAttr("k", "1");
  node.SetAttr("k", "2");
  EXPECT_EQ(node.Attr("k"), "2");
  EXPECT_EQ(node.attributes.size(), 1u);
}

// -------------------------------------------------------- write + parse --

TEST(XmlRoundTripTest, SimpleDocument) {
  XmlNode root;
  root.name = "doc";
  root.SetAttr("version", "1");
  XmlNode& child = root.AddChild("item");
  child.SetAttr("name", "alpha");
  child.text = "hello world";
  root.AddChild("empty");

  Result<XmlNode> parsed = ParseXml(WriteXml(root));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().name, "doc");
  EXPECT_EQ(parsed.value().Attr("version"), "1");
  ASSERT_NE(parsed.value().Child("item"), nullptr);
  EXPECT_EQ(parsed.value().Child("item")->text, "hello world");
  EXPECT_NE(parsed.value().Child("empty"), nullptr);
}

TEST(XmlRoundTripTest, EscapedCharacters) {
  XmlNode root;
  root.name = "doc";
  root.SetAttr("attr", "a<b>&\"'c");
  root.text = "1 < 2 && \"q\"";
  Result<XmlNode> parsed = ParseXml(WriteXml(root));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Attr("attr"), "a<b>&\"'c");
  EXPECT_EQ(parsed.value().text, "1 < 2 && \"q\"");
}

TEST(XmlRoundTripTest, DeepNesting) {
  XmlNode root;
  root.name = "l0";
  XmlNode* cursor = &root;
  for (int i = 1; i < 10; ++i) {
    cursor = &cursor->AddChild("l" + std::to_string(i));
  }
  cursor->text = "deep";
  Result<XmlNode> parsed = ParseXml(WriteXml(root));
  ASSERT_TRUE(parsed.ok());
  const XmlNode* walker = &parsed.value();
  for (int i = 1; i < 10; ++i) {
    walker = walker->Child("l" + std::to_string(i));
    ASSERT_NE(walker, nullptr);
  }
  EXPECT_EQ(walker->text, "deep");
}

TEST(XmlParseTest, AcceptsDeclarationAndComments) {
  const std::string doc =
      "<?xml version=\"1.0\"?>\n<!-- header -->\n"
      "<root><!-- inner --><a k='single quotes'/></root>\n<!-- trailing -->";
  Result<XmlNode> parsed = ParseXml(doc);
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed.value().Child("a"), nullptr);
  EXPECT_EQ(parsed.value().Child("a")->Attr("k"), "single quotes");
}

TEST(XmlParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                     // unterminated
  EXPECT_FALSE(ParseXml("<a></b>").ok());                 // mismatched
  EXPECT_FALSE(ParseXml("<a x=1></a>").ok());             // unquoted attr
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());          // unknown entity
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());                // two roots
  EXPECT_FALSE(ParseXml("just text").ok());
}

TEST(XmlFileTest, WriteAndReadBack) {
  const std::string path = TempPath("invarnetx_xml_test.xml");
  XmlNode root;
  root.name = "doc";
  root.AddChild("x").text = "42";
  ASSERT_TRUE(WriteXmlFile(path, root).ok());
  Result<XmlNode> parsed = ReadXmlFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Child("x")->text, "42");
  std::filesystem::remove(path);
}

TEST(XmlFileTest, MissingFileIsIoError) {
  Result<XmlNode> parsed = ReadXmlFile("/nonexistent/dir/file.xml");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

// ----------------------------------------------------------------- stores --

TEST(StoresTest, ArimaModelRoundTrip) {
  const std::string path = TempPath("invarnetx_models_test.xml");
  ArimaModelRecord rec;
  rec.p = 2;
  rec.d = 1;
  rec.q = 1;
  rec.ip = "10.0.0.2";
  rec.workload = "wordcount";
  rec.ar = {0.25, -0.125};
  rec.ma = {0.5};
  rec.intercept = 0.001953125;
  rec.sigma2 = 0.0625;
  rec.residual_min = 0.0001;
  rec.residual_max = 0.31;
  rec.residual_p95 = 0.12;
  ASSERT_TRUE(SaveArimaModels(path, {rec}).ok());
  Result<std::vector<ArimaModelRecord>> loaded = LoadArimaModels(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  const ArimaModelRecord& got = loaded.value()[0];
  EXPECT_EQ(got.p, 2);
  EXPECT_EQ(got.d, 1);
  EXPECT_EQ(got.q, 1);
  EXPECT_EQ(got.ip, "10.0.0.2");
  EXPECT_EQ(got.workload, "wordcount");
  EXPECT_EQ(got.ar, rec.ar);          // exact: %.17g round-trips doubles
  EXPECT_EQ(got.ma, rec.ma);
  EXPECT_DOUBLE_EQ(got.intercept, rec.intercept);
  EXPECT_DOUBLE_EQ(got.sigma2, rec.sigma2);
  EXPECT_DOUBLE_EQ(got.residual_max, rec.residual_max);
  std::filesystem::remove(path);
}

TEST(StoresTest, ArimaModelRejectsCoefficientMismatch) {
  const std::string path = TempPath("invarnetx_models_bad.xml");
  ArimaModelRecord rec;
  rec.p = 2;  // but only one AR coefficient below
  rec.ar = {0.5};
  ASSERT_TRUE(SaveArimaModels(path, {rec}).ok());
  EXPECT_FALSE(LoadArimaModels(path).ok());
  std::filesystem::remove(path);
}

// A store whose models.xml names an ARIMA order above the streaming
// predictor's bounds fails at load with a typed error, instead of building
// a model whose state would overrun the predictor's inline arrays. The
// largest in-bound order loads.
TEST(StoresTest, ArimaOrderAboveTheBoundsFailsStoreLoad) {
  const std::string dir = TempPath("invarnetx_order_bound_store");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveInvariantSets(dir + "/invariants.xml", {}).ok());
  ASSERT_TRUE(SaveSignatures(dir + "/signatures.xml", {}).ok());
  auto store_with = [&](int p, int d, int q) {
    ArimaModelRecord rec;
    rec.p = p;
    rec.d = d;
    rec.q = q;
    rec.ip = "10.0.0.2";
    rec.workload = "wordcount";
    rec.ar.assign(static_cast<size_t>(p), 0.05);
    rec.ma.assign(static_cast<size_t>(q), 0.05);
    rec.sigma2 = 1.0;
    rec.residual_max = 0.3;
    EXPECT_TRUE(SaveArimaModels(dir + "/models.xml", {rec}).ok());
    core::InvarNetX pipeline;
    return pipeline.LoadFromDirectory(dir);
  };
  const Status too_many_ar = store_with(ts::kMaxArimaP + 1, 0, 0);
  EXPECT_EQ(too_many_ar.code(), StatusCode::kInvalidArgument)
      << too_many_ar.ToString();
  EXPECT_EQ(store_with(0, ts::kMaxArimaD + 1, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_with(0, 0, ts::kMaxArimaQ + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      store_with(ts::kMaxArimaP, ts::kMaxArimaD, ts::kMaxArimaQ).ok());
  std::filesystem::remove_all(dir);
}

TEST(StoresTest, InvariantSetRoundTrip) {
  const std::string path = TempPath("invarnetx_invariants_test.xml");
  InvariantSetRecord rec;
  rec.ip = "10.0.0.3";
  rec.workload = "sort";
  rec.num_metrics = 26;
  rec.entries = {{0, 5, 0.875}, {3, 17, 0.25}};
  ASSERT_TRUE(SaveInvariantSets(path, {rec}).ok());
  Result<std::vector<InvariantSetRecord>> loaded = LoadInvariantSets(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].num_metrics, 26);
  ASSERT_EQ(loaded.value()[0].entries.size(), 2u);
  EXPECT_EQ(loaded.value()[0].entries[1].metric_a, 3);
  EXPECT_EQ(loaded.value()[0].entries[1].metric_b, 17);
  EXPECT_DOUBLE_EQ(loaded.value()[0].entries[0].value, 0.875);
  std::filesystem::remove(path);
}

TEST(StoresTest, SignatureRoundTrip) {
  const std::string path = TempPath("invarnetx_sigs_test.xml");
  SignatureRecord rec;
  rec.problem = "mem-hog";
  rec.ip = "10.0.0.2";
  rec.workload = "wordcount";
  rec.bits = {1, 0, 1, 1, 0};
  ASSERT_TRUE(SaveSignatures(path, {rec}).ok());
  Result<std::vector<SignatureRecord>> loaded = LoadSignatures(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].problem, "mem-hog");
  EXPECT_EQ(loaded.value()[0].bits, rec.bits);
  std::filesystem::remove(path);
}

TEST(StoresTest, EmptyListsRoundTrip) {
  const std::string path = TempPath("invarnetx_empty_test.xml");
  ASSERT_TRUE(SaveSignatures(path, {}).ok());
  Result<std::vector<SignatureRecord>> loaded = LoadSignatures(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
  std::filesystem::remove(path);
}

TEST(StoresTest, WrongRootIsRejected) {
  const std::string path = TempPath("invarnetx_wrongroot_test.xml");
  ASSERT_TRUE(SaveSignatures(path, {}).ok());
  EXPECT_FALSE(LoadArimaModels(path).ok());
  EXPECT_FALSE(LoadInvariantSets(path).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace invarnetx::xmlstore
