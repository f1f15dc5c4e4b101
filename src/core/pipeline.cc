#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <initializer_list>

#include "common/parallel.h"
#include "core/assoc_cache.h"
#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "telemetry/metrics.h"
#include "xmlstore/stores.h"
#include "xmlstore/xml.h"

namespace invarnetx::core {
namespace {

constexpr const char* kGlobalIp = "global";

// Collectors can emit garbage (counter wrap, parse bugs); a NaN reaching
// the ARIMA recursion would silently poison every later forecast, so the
// pipeline rejects non-finite observations at its boundary.
Status ValidateNode(const telemetry::NodeTrace& node, const char* what) {
  for (double v : node.cpi) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(std::string(what) +
                                     ": non-finite CPI sample");
    }
  }
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    for (double v : node.metrics[static_cast<size_t>(m)]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(std::string(what) +
                                       ": non-finite sample in " +
                                       telemetry::MetricName(m));
      }
    }
  }
  return Status::Ok();
}

// A config.xml parser for an enum attribute: the choice whose name is the
// attribute's text.
template <typename E>
auto NamedChoice(std::initializer_list<E> choices, std::string (*name)(E)) {
  return [choices = std::vector<E>(choices),
          name](const std::string& text) -> Result<E> {
    for (E choice : choices) {
      if (name(choice) == text) return choice;
    }
    return Status::Corruption("unknown name: " + text);
  };
}

// Reads one config.xml attribute through `parse`. An absent attribute keeps
// the pipeline's own value; one that does not parse is Corruption naming
// the attribute.
template <typename T, typename Parse>
Status ReadConfigAttr(const xmlstore::XmlNode& node, const char* attr,
                      const Parse& parse, T* out) {
  const std::string text = node.Attr(attr);
  if (text.empty()) return Status::Ok();
  Result<T> value = parse(text);
  if (!value.ok()) {
    return Status::Corruption(std::string("config.xml attribute ") + attr +
                              ": " + value.status().message());
  }
  *out = value.value();
  return Status::Ok();
}

}  // namespace

std::string DiagnosisCost::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "detect_s=%.6f matrix_s=%.6f infer_s=%.6f causal_s=%.6f "
                "total_s=%.6f cache_hits=%llu cache_misses=%llu",
                detect_seconds, matrix_seconds, infer_seconds, causal_seconds,
                total_seconds,
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses));
  return buf;
}

InvarNetX::InvarNetX(InvarNetXConfig config) : config_(config) {}

OperationContext InvarNetX::Key(const OperationContext& context) const {
  if (config_.use_operation_context) return context;
  // The no-operation-context baseline: one model for every workload/node.
  return OperationContext{workload::WorkloadType::kWordCount, kGlobalIp};
}

Status InvarNetX::TrainContext(
    const OperationContext& context,
    const std::vector<telemetry::RunTrace>& normal_runs, size_t node_index) {
  std::vector<TrainExample> examples;
  examples.reserve(normal_runs.size());
  for (const telemetry::RunTrace& run : normal_runs) {
    examples.push_back(TrainExample{&run, node_index});
  }
  return TrainContextFromExamples(context, examples);
}

Status InvarNetX::TrainContextFromExamples(
    const OperationContext& context,
    const std::vector<TrainExample>& examples) {
  if (examples.size() < 2) {
    return Status::InvalidArgument(
        "TrainContext: need >= 2 training examples");
  }
  obs::Span train_span("train_context",
                       {{"context", Key(context).ToString()},
                        {"examples", examples.size()}});
  obs::MetricsRegistry::Shared().GetCounter("pipeline.train_calls")
      .Increment();
  std::vector<std::vector<double>> cpi_traces;
  const std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(config_.engine);
  // Validation runs serially (cheap); the MIC mining of every example's
  // whole run - the dominant training cost - fans out across workers, each
  // writing its own preallocated matrix slot so the result is independent
  // of scheduling.
  std::vector<const telemetry::NodeTrace*> nodes;
  nodes.reserve(examples.size());
  for (const TrainExample& example : examples) {
    if (example.run == nullptr ||
        example.node_index >= example.run->nodes.size()) {
      return Status::InvalidArgument("TrainContext: bad example");
    }
    const telemetry::NodeTrace& node =
        example.run->nodes[example.node_index];
    INVARNETX_RETURN_IF_ERROR(ValidateNode(node, "TrainContext"));
    cpi_traces.push_back(node.cpi);
    nodes.push_back(&node);
  }
  // Incremental retrain: the previous epoch's snapshot carries the mining
  // records (matrices + digests) of its examples. When this retrain lines
  // up with it - same engine, same example count - each example hands its
  // predecessor to ComputeAssociationMatrix as a prior and only digest-dirty
  // pairs are rescored. Misalignment just means a cold mine; the records
  // repopulate either way.
  std::shared_ptr<const ContextModel> previous = Snapshot(Key(context));
  const std::string engine_name = engine->name();
  const MiningSnapshot* prior_mining = nullptr;
  if (previous != nullptr && previous->mining.engine == engine_name &&
      previous->mining.records.size() == nodes.size()) {
    prior_mining = &previous->mining;
  }
  std::vector<AssociationMatrix> matrices(nodes.size());
  std::vector<MatrixMiningRecord> records(nodes.size());
  std::atomic<int> pairs_rescored{0};
  std::atomic<int> pairs_reused{0};
  const AssociationOptions assoc = AssocOptions();
  obs::Span mine_span("mine_invariants",
                      {{"examples", nodes.size()},
                       {"incremental", prior_mining != nullptr}});
  INVARNETX_RETURN_IF_ERROR(ParallelFor(
      nodes.size(), config_.num_threads, [&](size_t i) -> Status {
        IncrementalMatrixStats stats;
        Result<AssociationMatrix> matrix = ComputeAssociationMatrix(
            *nodes[i], *engine, assoc,
            prior_mining == nullptr ? nullptr : &prior_mining->records[i],
            &records[i], &stats);
        if (!matrix.ok()) return matrix.status();
        pairs_rescored.fetch_add(stats.rescored, std::memory_order_relaxed);
        pairs_reused.fetch_add(stats.reused, std::memory_order_relaxed);
        matrices[i] = std::move(matrix.value());
        return Status::Ok();
      }));
  mine_span.End();
  if (prior_mining != nullptr) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
    registry.GetCounter("pipeline.pairs_rescored")
        .Increment(static_cast<uint64_t>(
            pairs_rescored.load(std::memory_order_relaxed)));
    registry.GetCounter("pipeline.pairs_reused")
        .Increment(static_cast<uint64_t>(
            pairs_reused.load(std::memory_order_relaxed)));
  }

  obs::Span perf_span("train_perf_model");
  Result<PerformanceModel> perf =
      PerformanceModel::Train(cpi_traces, config_.beta);
  if (!perf.ok()) return perf.status();
  perf_span.End();
  Result<InvariantSet> invariants = BuildInvariants(matrices, config_.tau);
  if (!invariants.ok()) return invariants.status();

  // Publish a fresh epoch: signatures taught to the previous epoch carry
  // over (retraining refreshes the model and invariants, not the operator's
  // investigated-problem knowledge).
  auto fresh = std::make_shared<ContextModel>();
  fresh->perf = std::move(perf.value());
  fresh->invariants = std::move(invariants.value());
  fresh->mining.engine = engine_name;
  fresh->mining.records = std::move(records);
  // Re-fetch the newest epoch for the signature carry-over: a signature
  // taught while this retrain was mining must not be dropped ("previous"
  // above may be a mine-duration stale snapshot).
  if (std::shared_ptr<const ContextModel> latest = Snapshot(Key(context))) {
    fresh->sigdb = latest->sigdb;
  }
  const size_t num_invariants = fresh->invariants.NumInvariants();
  Publish(Key(context), std::move(fresh));
  obs::EventJournal::Shared().Record(
      obs::EventKind::kRetrain, "context (re)trained",
      {{"context", Key(context).ToString()},
       {"invariants", num_invariants},
       {"incremental", prior_mining != nullptr},
       {"pairs_rescored", pairs_rescored.load(std::memory_order_relaxed)},
       {"pairs_reused", pairs_reused.load(std::memory_order_relaxed)}});
  INVARNETX_OBS_LOG(
      obs::LogLevel::kInfo, "trained context",
      {{"context", Key(context).ToString()},
       {"examples", examples.size()},
       {"invariants", num_invariants},
       {"incremental", prior_mining != nullptr},
       {"pairs_rescored", pairs_rescored.load(std::memory_order_relaxed)},
       {"pairs_reused", pairs_reused.load(std::memory_order_relaxed)},
       {"mine_s", mine_span.Seconds()},
       {"perf_model_s", perf_span.Seconds()}});
  return Status::Ok();
}

Status InvarNetX::AddSignature(const OperationContext& context,
                               const std::string& problem,
                               const telemetry::RunTrace& abnormal_run,
                               size_t node_index) {
  std::shared_ptr<const ContextModel> current = Snapshot(Key(context));
  if (current == nullptr) {
    return Status::FailedPrecondition("AddSignature: context not trained: " +
                                      context.ToString());
  }
  if (node_index >= abnormal_run.nodes.size()) {
    return Status::InvalidArgument("AddSignature: node index out of range");
  }
  INVARNETX_RETURN_IF_ERROR(
      ValidateNode(abnormal_run.nodes[node_index], "AddSignature"));
  Result<AssociationMatrix> matrix =
      AbnormalMatrix(abnormal_run.nodes[node_index]);
  if (!matrix.ok()) return matrix.status();
  Result<std::vector<uint8_t>> tuple = ComputeViolationTuple(
      current->invariants, matrix.value(), config_.epsilon);
  if (!tuple.ok()) return tuple.status();
  obs::MetricsRegistry::Shared().GetCounter("pipeline.signatures_added")
      .Increment();
  INVARNETX_OBS_LOG(obs::LogLevel::kInfo, "added signature",
                    {{"context", Key(context).ToString()},
                     {"problem", problem}});
  // Copy-on-write: the signature lands in a fresh epoch so readers holding
  // the current snapshot never observe a mutating SignatureDatabase.
  auto fresh = std::make_shared<ContextModel>(*current);
  INVARNETX_RETURN_IF_ERROR(
      fresh->sigdb.Add(Signature{problem, std::move(tuple.value())}));
  Publish(Key(context), std::move(fresh));
  return Status::Ok();
}

Result<DiagnosisReport> InvarNetX::Diagnose(const OperationContext& context,
                                            const telemetry::RunTrace& run,
                                            size_t node_index) const {
  std::shared_ptr<const ContextModel> model = Snapshot(Key(context));
  if (model == nullptr) {
    return Status::FailedPrecondition("Diagnose: context not trained: " +
                                      context.ToString());
  }
  if (node_index >= run.nodes.size()) {
    return Status::InvalidArgument("Diagnose: node index out of range");
  }
  INVARNETX_RETURN_IF_ERROR(ValidateNode(run.nodes[node_index], "Diagnose"));
  obs::Span diagnose_span("diagnose", {{"context", Key(context).ToString()}});
  obs::MetricsRegistry::Shared().GetCounter("pipeline.diagnose_calls")
      .Increment();
  AnomalyDetector detector(model->perf, config_.threshold_rule,
                           config_.consecutive_required);
  obs::Span detect_span("detect");
  const AnomalyScan scan = detector.Scan(run.nodes[node_index].cpi);
  detect_span.End();
  if (!scan.triggered()) {
    DiagnosisReport report;
    report.anomaly_detected = false;
    diagnose_span.End();
    report.cost.detect_seconds = detect_span.Seconds();
    report.cost.total_seconds = diagnose_span.Seconds();
    INVARNETX_OBS_LOG(obs::LogLevel::kDebug, "diagnosis: no anomaly",
                      {{"context", Key(context).ToString()},
                       {"detect_s", detect_span.Seconds()}});
    return report;
  }
  obs::MetricsRegistry::Shared().GetCounter("pipeline.anomalies").Increment();
  // Infer against the same epoch detection ran on, so a concurrent retrain
  // cannot split one diagnosis across two model generations.
  Result<DiagnosisReport> report =
      InferCauseForModel(*model, run.nodes[node_index]);
  if (!report.ok()) return report.status();
  report.value().anomaly_detected = true;
  report.value().first_alarm_tick = scan.first_alarm_tick;
  diagnose_span.End();
  report.value().cost.detect_seconds = detect_span.Seconds();
  report.value().cost.total_seconds = diagnose_span.Seconds();
  INVARNETX_OBS_LOG(
      obs::LogLevel::kInfo, "diagnosis: anomaly",
      {{"context", Key(context).ToString()},
       {"first_alarm_tick", scan.first_alarm_tick},
       {"violations", report.value().num_violations},
       {"known_problem", report.value().known_problem},
       {"total_s", diagnose_span.Seconds()}});
  return report;
}

Result<DiagnosisReport> InvarNetX::InferCause(const OperationContext& context,
                                              const telemetry::RunTrace& run,
                                              size_t node_index) const {
  if (node_index >= run.nodes.size()) {
    return Status::InvalidArgument("InferCause: node index out of range");
  }
  std::shared_ptr<const ContextModel> model = Snapshot(Key(context));
  if (model == nullptr) {
    return Status::FailedPrecondition("InferCause: context not trained: " +
                                      context.ToString());
  }
  return InferCauseForModel(*model, run.nodes[node_index]);
}

Result<DiagnosisReport> InvarNetX::InferCauseForModel(
    const ContextModel& model, const telemetry::NodeTrace& node) const {
  // Every inference path funnels through here, including served windows,
  // whose samples no trace-input check has seen: a non-finite sample would
  // otherwise reach the MIC sort, whose comparator is no ordering on NaN.
  INVARNETX_RETURN_IF_ERROR(ValidateNode(node, "InferCause"));
  obs::Span infer_span("infer_cause");
  const AssociationScoreCache& cache = AssociationScoreCache::Shared();
  const uint64_t hits_before = cache.hits();
  const uint64_t misses_before = cache.misses();
  const uint64_t matrix_start_us = obs::UptimeMicros();
  Result<AssociationMatrix> matrix = AbnormalMatrix(node);
  if (!matrix.ok()) return matrix.status();
  const double matrix_seconds =
      static_cast<double>(obs::UptimeMicros() - matrix_start_us) / 1e6;
  std::vector<double> deviations;
  Result<std::vector<uint8_t>> tuple = ComputeViolationTuple(
      model.invariants, matrix.value(), config_.epsilon, &deviations);
  if (!tuple.ok()) return tuple.status();

  DiagnosisReport report;
  report.cost.matrix_seconds = matrix_seconds;
  report.cost.cache_hits = cache.hits() - hits_before;
  report.cost.cache_misses = cache.misses() - misses_before;
  report.violations = std::move(tuple.value());
  report.deviations = std::move(deviations);
  for (uint8_t bit : report.violations) report.num_violations += bit;

  // Hints: violated association pairs, worst deviation first, so the
  // operator sees the most decisively broken invariants at the top.
  std::vector<size_t> violated;
  for (size_t i = 0; i < report.violations.size(); ++i) {
    if (report.violations[i]) violated.push_back(i);
  }
  std::stable_sort(violated.begin(), violated.end(),
                   [&report](size_t a, size_t b) {
                     return report.deviations[a] > report.deviations[b];
                   });
  const std::vector<int> pair_indices = model.invariants.PairIndices();
  for (size_t i : violated) {
    if (report.hints.size() >= 10) break;
    int a = 0, b = 0;
    telemetry::PairFromIndex(pair_indices[i], &a, &b);
    report.hints.push_back(telemetry::MetricName(a) + " ~ " +
                           telemetry::MetricName(b));
  }

  if (model.sigdb.size() > 0) {
    Result<std::vector<RankedCause>> causes =
        model.sigdb.Query(report.violations, config_.similarity,
                          config_.top_k);
    if (!causes.ok()) return causes.status();
    report.causes = std::move(causes.value());
    report.known_problem = !report.causes.empty() &&
                           report.causes[0].score >= config_.min_similarity;
  }

  // Causal fallback: no signature cleared the threshold (or there were no
  // signatures at all), so rank suspect metrics over the broken-edge
  // subgraph of the invariant network instead of leaving the operator with
  // a low-confidence match. Pure function of the model snapshot and the
  // violation evidence - deterministic for every thread count.
  double causal_seconds = 0.0;
  if (!report.known_problem && report.num_violations > 0) {
    const uint64_t causal_start_us = obs::UptimeMicros();
    Result<causal::InvariantGraph> graph = causal::BuildInvariantGraph(
        model.invariants.present, model.invariants.values, report.violations,
        report.deviations);
    if (!graph.ok()) return graph.status();
    report.suspects = causal::RankSuspects(graph.value());
    report.used_causal_fallback = !report.suspects.empty();
    causal_seconds =
        static_cast<double>(obs::UptimeMicros() - causal_start_us) / 1e6;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
    registry.GetCounter("causal.rankings").Increment();
    if (report.used_causal_fallback) {
      registry.GetCounter("causal.fallback_total").Increment();
      obs::EventJournal::Shared().Record(
          obs::EventKind::kCausalFallback,
          "causal fallback ranked suspects",
          {{"violations", report.num_violations},
           {"suspects", static_cast<int>(report.suspects.size())},
           {"top_metric", telemetry::MetricName(report.suspects[0].metric)}});
    }
  }

  infer_span.End();
  report.cost.causal_seconds = causal_seconds;
  report.cost.total_seconds = infer_span.Seconds();
  report.cost.infer_seconds =
      infer_span.Seconds() - matrix_seconds - causal_seconds;
  return report;
}

AssociationOptions InvarNetX::AssocOptions() const {
  AssociationOptions options;
  options.num_threads = config_.num_threads;
  options.use_cache = config_.use_association_cache;
  options.verify_incremental = config_.verify_incremental;
  return options;
}

Result<AssociationMatrix> InvarNetX::AbnormalMatrix(
    const telemetry::NodeTrace& node) const {
  const std::unique_ptr<AssociationEngine> engine =
      AssociationEngine::Make(config_.engine);
  // Whole-run matrices: the contrast between normal stretches (before and
  // after the problem) and the problem window is exactly what produces the
  // violation pattern, so no truncation is applied.
  return ComputeAssociationMatrix(node, *engine, AssocOptions());
}

bool InvarNetX::HasContext(const OperationContext& context) const {
  return Snapshot(Key(context)) != nullptr;
}

Result<std::shared_ptr<const ContextModel>> InvarNetX::GetContext(
    const OperationContext& context) const {
  std::shared_ptr<const ContextModel> model = Snapshot(Key(context));
  if (model == nullptr) {
    return Status::NotFound("context not trained: " + context.ToString());
  }
  return model;
}

std::shared_ptr<const ContextModel> InvarNetX::Snapshot(
    const OperationContext& key) const {
  std::lock_guard<std::mutex> lock(contexts_mu_);
  auto it = contexts_.find(key);
  return it == contexts_.end() ? nullptr : it->second;
}

void InvarNetX::Publish(const OperationContext& key,
                        std::shared_ptr<ContextModel> fresh) {
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    std::shared_ptr<const ContextModel>& slot = contexts_[key];
    fresh->epoch = (slot == nullptr ? 0 : slot->epoch) + 1;
    epoch = fresh->epoch;
    slot = std::move(fresh);
  }
  // Journal outside the lock: readers pinning snapshots never wait on the
  // journal's mutex.
  obs::EventJournal::Shared().Record(
      obs::EventKind::kEpochPublish, "context model epoch published",
      {{"context", key.ToString()}, {"epoch", epoch}});
}

Status InvarNetX::SaveToDirectory(const std::string& directory) const {
  // The pipeline configuration is part of the store: violation tuples are
  // only meaningful against the same engine and thresholds they were
  // computed with.
  xmlstore::XmlNode config_node;
  config_node.name = "invarnetx_config";
  config_node.SetAttr("engine", AssociationEngineName(config_.engine));
  config_node.SetAttr("tau", std::to_string(config_.tau));
  config_node.SetAttr("epsilon", std::to_string(config_.epsilon));
  config_node.SetAttr("beta", std::to_string(config_.beta));
  config_node.SetAttr("rule", ThresholdRuleName(config_.threshold_rule));
  config_node.SetAttr("consecutive",
                      std::to_string(config_.consecutive_required));
  config_node.SetAttr("similarity",
                      SimilarityMetricName(config_.similarity));
  config_node.SetAttr("min_similarity",
                      std::to_string(config_.min_similarity));
  config_node.SetAttr("use_operation_context",
                      config_.use_operation_context ? "1" : "0");
  INVARNETX_RETURN_IF_ERROR(
      xmlstore::WriteXmlFile(directory + "/config.xml", config_node));

  // Iterate a point-in-time copy of the map so saving is safe against
  // concurrent training (each snapshot itself is immutable).
  std::map<OperationContext, std::shared_ptr<const ContextModel>> snapshot;
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    snapshot = contexts_;
  }
  std::vector<xmlstore::ArimaModelRecord> models;
  std::vector<xmlstore::InvariantSetRecord> invariant_sets;
  std::vector<xmlstore::SignatureRecord> signatures;
  for (const auto& [context, model_ptr] : snapshot) {
    const ContextModel& model = *model_ptr;
    xmlstore::ArimaModelRecord rec;
    const ts::ArimaModel& arima = model.perf.arima();
    rec.p = arima.order().p;
    rec.d = arima.order().d;
    rec.q = arima.order().q;
    rec.ip = context.node_ip;
    rec.workload = workload::WorkloadName(context.workload);
    rec.ar = arima.ar();
    rec.ma = arima.ma();
    rec.intercept = arima.intercept();
    rec.sigma2 = arima.sigma2();
    rec.residual_min = model.perf.residual_min();
    rec.residual_max = model.perf.residual_max();
    rec.residual_p95 = model.perf.residual_p95();
    models.push_back(std::move(rec));

    xmlstore::InvariantSetRecord inv;
    inv.ip = context.node_ip;
    inv.workload = workload::WorkloadName(context.workload);
    inv.num_metrics = telemetry::kNumMetrics;
    for (int pair : model.invariants.PairIndices()) {
      int a = 0, b = 0;
      telemetry::PairFromIndex(pair, &a, &b);
      inv.entries.push_back(xmlstore::InvariantEntry{
          a, b, model.invariants.values[static_cast<size_t>(pair)]});
    }
    invariant_sets.push_back(std::move(inv));

    for (const Signature& sig : model.sigdb.signatures()) {
      xmlstore::SignatureRecord srec;
      srec.problem = sig.problem;
      srec.ip = context.node_ip;
      srec.workload = workload::WorkloadName(context.workload);
      srec.bits = sig.bits;
      signatures.push_back(std::move(srec));
    }
  }
  INVARNETX_RETURN_IF_ERROR(
      xmlstore::SaveArimaModels(directory + "/models.xml", models));
  INVARNETX_RETURN_IF_ERROR(xmlstore::SaveInvariantSets(
      directory + "/invariants.xml", invariant_sets));
  return xmlstore::SaveSignatures(directory + "/signatures.xml", signatures);
}

Status InvarNetX::LoadFromDirectory(const std::string& directory) {
  // Restore the configuration the store was built with (older stores
  // without config.xml keep this pipeline's configuration).
  Result<xmlstore::XmlNode> config_node =
      xmlstore::ReadXmlFile(directory + "/config.xml");
  if (config_node.ok()) {
    const xmlstore::XmlNode& node = config_node.value();
    if (node.name != "invarnetx_config") {
      return Status::Corruption("expected <invarnetx_config> root");
    }
    INVARNETX_RETURN_IF_ERROR(ReadConfigAttr(
        node, "engine",
        NamedChoice<AssociationEngineType>(
            {AssociationEngineType::kMic, AssociationEngineType::kArx,
             AssociationEngineType::kEnsemble},
            AssociationEngineName),
        &config_.engine));
    INVARNETX_RETURN_IF_ERROR(ReadConfigAttr(
        node, "rule",
        NamedChoice<ThresholdRule>(
            {ThresholdRule::kMaxMin, ThresholdRule::k95Percentile,
             ThresholdRule::kBetaMax},
            ThresholdRuleName),
        &config_.threshold_rule));
    INVARNETX_RETURN_IF_ERROR(ReadConfigAttr(
        node, "similarity",
        NamedChoice<SimilarityMetric>(
            {SimilarityMetric::kJaccard, SimilarityMetric::kDice,
             SimilarityMetric::kCosine, SimilarityMetric::kHamming,
             SimilarityMetric::kIdfJaccard},
            SimilarityMetricName),
        &config_.similarity));
    INVARNETX_RETURN_IF_ERROR(
        ReadConfigAttr(node, "tau", xmlstore::StrToDouble, &config_.tau));
    INVARNETX_RETURN_IF_ERROR(ReadConfigAttr(
        node, "epsilon", xmlstore::StrToDouble, &config_.epsilon));
    INVARNETX_RETURN_IF_ERROR(
        ReadConfigAttr(node, "beta", xmlstore::StrToDouble, &config_.beta));
    INVARNETX_RETURN_IF_ERROR(ReadConfigAttr(node, "consecutive",
                                             xmlstore::StrToInt,
                                             &config_.consecutive_required));
    INVARNETX_RETURN_IF_ERROR(ReadConfigAttr(
        node, "min_similarity", xmlstore::StrToDouble,
        &config_.min_similarity));
    if (!node.Attr("use_operation_context").empty()) {
      config_.use_operation_context =
          node.Attr("use_operation_context") == "1";
    }
  }

  Result<std::vector<xmlstore::ArimaModelRecord>> models =
      xmlstore::LoadArimaModels(directory + "/models.xml");
  if (!models.ok()) return models.status();
  Result<std::vector<xmlstore::InvariantSetRecord>> invariant_sets =
      xmlstore::LoadInvariantSets(directory + "/invariants.xml");
  if (!invariant_sets.ok()) return invariant_sets.status();
  Result<std::vector<xmlstore::SignatureRecord>> signatures =
      xmlstore::LoadSignatures(directory + "/signatures.xml");
  if (!signatures.ok()) return signatures.status();

  // Assemble the restored state off to the side, then publish every context
  // as a fresh epoch in one pass: readers either see the old store or the
  // new one per context, never a half-restored model.
  std::map<OperationContext, ContextModel> staging;
  for (const xmlstore::ArimaModelRecord& rec : models.value()) {
    Result<workload::WorkloadType> type =
        workload::WorkloadFromName(rec.workload);
    if (!type.ok()) return type.status();
    Result<ts::ArimaModel> arima = ts::ArimaModel::FromParameters(
        ts::ArimaOrder{rec.p, rec.d, rec.q}, rec.ar, rec.ma, rec.intercept,
        rec.sigma2);
    if (!arima.ok()) return arima.status();
    const OperationContext context{type.value(), rec.ip};
    staging[context].perf = PerformanceModel::FromParts(
        std::move(arima.value()), rec.residual_min, rec.residual_max,
        rec.residual_p95, config_.beta);
  }
  for (const xmlstore::InvariantSetRecord& rec : invariant_sets.value()) {
    Result<workload::WorkloadType> type =
        workload::WorkloadFromName(rec.workload);
    if (!type.ok()) return type.status();
    if (rec.num_metrics != telemetry::kNumMetrics) {
      return Status::Corruption("invariant set has wrong metric count");
    }
    InvariantSet set;
    set.present.assign(telemetry::kNumMetricPairs, 0);
    set.values.assign(telemetry::kNumMetricPairs, 0.0);
    for (const xmlstore::InvariantEntry& entry : rec.entries) {
      if (entry.metric_a < 0 || entry.metric_b <= entry.metric_a ||
          entry.metric_b >= telemetry::kNumMetrics) {
        return Status::Corruption("bad invariant pair indices");
      }
      const size_t index = static_cast<size_t>(
          telemetry::PairIndex(entry.metric_a, entry.metric_b));
      set.present[index] = 1;
      set.values[index] = entry.value;
    }
    staging[OperationContext{type.value(), rec.ip}].invariants =
        std::move(set);
  }
  for (const xmlstore::SignatureRecord& rec : signatures.value()) {
    Result<workload::WorkloadType> type =
        workload::WorkloadFromName(rec.workload);
    if (!type.ok()) return type.status();
    const Status added =
        staging[OperationContext{type.value(), rec.ip}].sigdb.Add(
            Signature{rec.problem, rec.bits});
    if (!added.ok()) return added;
  }
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    contexts_.clear();
    for (auto& [context, model] : staging) {
      auto fresh = std::make_shared<ContextModel>(std::move(model));
      fresh->epoch = 1;
      contexts_[context] = std::move(fresh);
    }
  }
  return Status::Ok();
}

}  // namespace invarnetx::core
