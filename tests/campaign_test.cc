// Tier-2 suite for the fault-campaign harness: the scenario parser, the
// scoreboard renderings, the golden-report gate, and a fast end-to-end
// campaign whose scoreboards must be bit-identical across thread counts.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/scoreboard.h"
#include "faults/fault.h"
#include "obs/span.h"
#include "telemetry/metrics.h"
#include "workload/spec.h"

namespace invarnetx::campaign {
namespace {

namespace fs = std::filesystem;

// A scenario small enough to run end to end in well under a second: two
// slaves, three training runs, a three-problem signature catalog.
constexpr const char* kMiniScenario = R"(# test scenario
name = mini-cpu-hog
workload = wordcount
fault = cpu-hog
seed = 7
slaves = 2
normal-runs = 3
signature-runs = 1
test-runs = 2
signatures = cpu-hog,mem-hog,disk-hog
)";

// The same cluster with the injected fault held out of the catalog: the
// signature engine has never seen a CPU hog, so only the causal suspect
// ranking can localize it.
constexpr const char* kMiniHoldOutScenario = R"(# unknown-fault test scenario
name = mini-unseen-cpu-hog
workload = wordcount
fault = cpu-hog
seed = 7
slaves = 2
normal-runs = 3
signature-runs = 1
test-runs = 2
signatures = all-except-fault
)";

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("invarnetx_campaign_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string Str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

void WriteFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// ------------------------------------------------------- scenario parser --

TEST(ScenarioParserTest, ParsesAllKeys) {
  const Result<Scenario> parsed = ParseScenario(R"(
# comment
name = full
workload = sort
fault = mem-hog
expected-cause = memory-pressure
seed = 99
slaves = 3
normal-runs = 4
signature-runs = 2
test-runs = 5
ticks = 80
fault-start = 12
fault-duration = 18
target-node = 2
signatures = mem-hog,cpu-hog
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Scenario& s = parsed.value();
  EXPECT_EQ(s.name, "full");
  EXPECT_EQ(s.workload, workload::WorkloadType::kSort);
  EXPECT_EQ(s.fault, faults::FaultType::kMemHog);
  EXPECT_EQ(s.expected_cause, "memory-pressure");
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.slaves, 3);
  EXPECT_EQ(s.normal_runs, 4);
  EXPECT_EQ(s.signature_runs, 2);
  EXPECT_EQ(s.test_runs, 5);
  EXPECT_EQ(s.interactive_ticks, 80);
  EXPECT_EQ(s.window.start_tick, 12);
  EXPECT_EQ(s.window.duration_ticks, 18);
  EXPECT_EQ(s.window.target_node, 2u);
  ASSERT_EQ(s.signature_faults.size(), 2u);
  EXPECT_EQ(s.signature_faults[0], faults::FaultType::kMemHog);
  EXPECT_EQ(s.signature_faults[1], faults::FaultType::kCpuHog);
}

TEST(ScenarioParserTest, DefaultsExpectedCauseAndWindow) {
  const Result<Scenario> parsed = ParseScenario(
      "name = d\nworkload = grep\nfault = disk-hog\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().expected_cause, "disk-hog");
  // DefaultFaultWindow(disk-hog): slave fault, default schedule.
  EXPECT_EQ(parsed.value().window.start_tick, 8);
  EXPECT_EQ(parsed.value().window.duration_ticks, 30);
  EXPECT_EQ(parsed.value().window.target_node, 1u);
  // `signatures` omitted expands to the whole applicable catalog, which
  // always includes the injected fault itself.
  EXPECT_GT(parsed.value().signature_faults.size(), 5u);
  EXPECT_NE(std::find(parsed.value().signature_faults.begin(),
                      parsed.value().signature_faults.end(),
                      faults::FaultType::kDiskHog),
            parsed.value().signature_faults.end());
}

TEST(ScenarioParserTest, RejectsMalformedInputs) {
  // Missing required keys.
  EXPECT_FALSE(ParseScenario("workload = sort\nfault = cpu-hog\n").ok());
  EXPECT_FALSE(ParseScenario("name = x\nfault = cpu-hog\n").ok());
  EXPECT_FALSE(ParseScenario("name = x\nworkload = sort\n").ok());
  // Typos must not silently change a campaign.
  EXPECT_FALSE(ParseScenario(
      "name = x\nworkload = sort\nfault = cpu-hog\nsignature_runs = 2\n")
          .ok());
  // Duplicate keys are ambiguous.
  EXPECT_FALSE(
      ParseScenario("name = x\nname = y\nworkload = sort\nfault = cpu-hog\n")
          .ok());
  // Unknown enum values; the error names the valid set.
  const Result<Scenario> bad_workload =
      ParseScenario("name = x\nworkload = mapreduce\nfault = cpu-hog\n");
  ASSERT_FALSE(bad_workload.ok());
  EXPECT_NE(bad_workload.status().message().find("wordcount"),
            std::string::npos);
  EXPECT_FALSE(ParseScenario("name = x\nworkload = sort\nfault = gremlin\n")
                   .ok());
  // Numeric fields must be whole tokens.
  EXPECT_FALSE(ParseScenario(
      "name = x\nworkload = sort\nfault = cpu-hog\nseed = 12abc\n")
          .ok());
  // A target node outside the cluster.
  EXPECT_FALSE(ParseScenario(
      "name = x\nworkload = sort\nfault = cpu-hog\nslaves = 2\n"
      "target-node = 5\n")
          .ok());
  // The expected fault must be part of the signature catalog.
  EXPECT_FALSE(ParseScenario(
      "name = x\nworkload = sort\nfault = cpu-hog\n"
      "signatures = mem-hog,disk-hog\n")
          .ok());
}

TEST(ScenarioParserTest, HoldOutExcludesInjectedFaultFromCatalog) {
  const Result<Scenario> parsed = ParseScenario(
      "name = x\nworkload = wordcount\nfault = cpu-hog\n"
      "signatures = all-except-fault\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Scenario& s = parsed.value();
  EXPECT_TRUE(s.hold_out);
  // The catalog expanded to the applicable faults minus the injected one.
  EXPECT_FALSE(s.signature_faults.empty());
  EXPECT_EQ(std::count(s.signature_faults.begin(), s.signature_faults.end(),
                       faults::FaultType::kCpuHog),
            0);
  // The ranked-metric answer list defaults to the fault's footprint.
  EXPECT_EQ(s.expected_metrics,
            DefaultCulpritMetrics(faults::FaultType::kCpuHog));
  // A plain catalog never holds out.
  const Result<Scenario> plain = ParseScenario(
      "name = y\nworkload = wordcount\nfault = cpu-hog\nsignatures = all\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().hold_out);
  EXPECT_EQ(std::count(plain.value().signature_faults.begin(),
                       plain.value().signature_faults.end(),
                       faults::FaultType::kCpuHog),
            1);
}

TEST(ScenarioParserTest, ExpectedMetricsOverrideAndErrors) {
  const Result<Scenario> parsed = ParseScenario(
      "name = x\nworkload = sort\nfault = mem-hog\n"
      "expected-metrics = mem_used_mb, swap_used_mb\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const std::vector<int> want = {
      telemetry::MetricFromName("mem_used_mb").value(),
      telemetry::MetricFromName("swap_used_mb").value()};
  EXPECT_EQ(parsed.value().expected_metrics, want);

  // Unknown metric names and empty lists are hard errors, like every other
  // scenario-key typo.
  EXPECT_FALSE(ParseScenario(
                   "name = x\nworkload = sort\nfault = mem-hog\n"
                   "expected-metrics = mem_used_mb, bogus_metric\n")
                   .ok());
  EXPECT_FALSE(ParseScenario(
                   "name = x\nworkload = sort\nfault = mem-hog\n"
                   "expected-metrics = ,\n")
                   .ok());
}

TEST(ScenarioParserTest, DirectoryLoadsSortedAndRejectsDuplicates) {
  TempDir dir("parse");
  WriteFile(dir.path() / "02-b.scenario",
            "name = bravo\nworkload = sort\nfault = mem-hog\n");
  WriteFile(dir.path() / "01-a.scenario",
            "name = alpha\nworkload = grep\nfault = cpu-hog\n");
  WriteFile(dir.path() / "notes.txt", "not a scenario");
  Result<std::vector<Scenario>> loaded = LoadScenarioDirectory(dir.Str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].name, "alpha");
  EXPECT_EQ(loaded.value()[1].name, "bravo");

  WriteFile(dir.path() / "03-dup.scenario",
            "name = alpha\nworkload = sort\nfault = mem-hog\n");
  EXPECT_FALSE(LoadScenarioDirectory(dir.Str()).ok());

  TempDir empty("empty");
  EXPECT_FALSE(LoadScenarioDirectory(empty.Str()).ok());
}

// ------------------------------------------------------------ scoreboard --

CampaignResult SyntheticResult() {
  CampaignResult result;
  ScenarioScore score;
  score.name = "synthetic";
  score.workload = workload::WorkloadType::kGrep;
  score.fault = faults::FaultType::kDiskHog;
  score.expected_cause = "disk-hog";
  score.window.start_tick = 8;
  score.window.duration_ticks = 30;
  score.window.target_node = 1;
  score.test_runs = 2;
  score.detected = 2;
  score.top1_correct = 1;
  score.topk_correct = 2;
  score.found_any = 2;
  score.precision_at_1 = 0.5;
  score.precision_at_k = 1.0;
  score.recall = 1.0;
  score.map = 0.75;
  score.mean_detection_latency_ticks = 2.5;
  score.expected_metrics = DefaultCulpritMetrics(faults::FaultType::kDiskHog);
  score.causal_top1_correct = 1;
  score.causal_top3_correct = 2;
  score.causal_topk_correct = 2;
  score.causal_found = 2;
  score.causal_precision_at_1 = 0.5;
  score.causal_precision_at_k = 1.0;
  score.causal_recall = 1.0;
  score.causal_recall_at_3 = 1.0;
  score.causal_map = 0.75;
  RunOutcome run;
  run.rep = 0;
  run.detected = true;
  run.known_problem = true;
  run.first_alarm_tick = 10;
  run.num_violations = 12;
  run.expected_rank = 1;
  run.causes.push_back(core::RankedCause{"disk-hog", 0.625});
  run.causes.push_back(core::RankedCause{"mem-hog", 0.125});
  run.causal_rank = 1;
  run.suspects.push_back(causal::RankedSuspect{
      telemetry::MetricFromName("disk_util_pct").value(), 0.5});
  run.suspects.push_back(causal::RankedSuspect{
      telemetry::MetricFromName("cpu_iowait_pct").value(), 0.25});
  score.runs.push_back(run);
  result.scores.push_back(score);
  result.total_test_runs = 2;
  result.mean_precision_at_1 = 0.5;
  result.mean_precision_at_k = 1.0;
  result.mean_recall = 1.0;
  result.mean_map = 0.75;
  result.mean_detection_latency_ticks = 2.5;
  result.known_scenarios = 1;
  result.mean_known_precision_at_1 = 0.5;
  result.mean_causal_precision_at_1 = 0.5;
  result.mean_causal_precision_at_k = 1.0;
  result.mean_causal_recall = 1.0;
  result.mean_causal_map = 0.75;
  return result;
}

TEST(ScoreboardTest, CsvHasHeaderAndOneRowPerScenario) {
  const std::string csv = RenderCsv(SyntheticResult());
  std::istringstream lines(csv);
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_NE(header.find("precision_at_1"), std::string::npos);
  EXPECT_NE(header.find("causal_precision_at_1"), std::string::npos);
  EXPECT_NE(header.find("causal_recall_at_3"), std::string::npos);
  EXPECT_NE(header.find("hold_out"), std::string::npos);
  EXPECT_NE(row.find("synthetic"), std::string::npos);
  EXPECT_NE(row.find("0.500000"), std::string::npos);
}

TEST(ScoreboardTest, JsonCarriesRunsAndSummary) {
  const std::string json = RenderJson(SyntheticResult());
  EXPECT_NE(json.find("\"scenarios\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"expected_rank\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"mean_precision_at_1\": 0.500000"),
            std::string::npos);
  // Head-to-head: both engines' verdicts travel with every run and the
  // summary carries the per-engine means.
  EXPECT_NE(json.find("\"causal_rank\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"top_suspect\": \"disk_util_pct\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mean_causal_precision_at_1\": 0.500000"),
            std::string::npos);
  EXPECT_NE(json.find("\"mean_known_precision_at_1\": 0.500000"),
            std::string::npos);
}

// A scenario name is free text from a .scenario file: a control character
// in it must leave the JSON scoreboard valid (escaped, never raw).
TEST(ScoreboardTest, JsonEscapesControlCharactersInNames) {
  CampaignResult result = SyntheticResult();
  result.scores[0].name = "cpu\x01hog";
  const std::string json = RenderJson(result);
  const Status valid = obs::ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("\"cpu\\u0001hog\""), std::string::npos) << json;
}

TEST(ScoreboardTest, ReportNamesFaultScheduleAndRankedCauses) {
  const std::string report = RenderScenarioReport(SyntheticResult().scores[0]);
  EXPECT_NE(report.find("disk-hog @ tick 8 for 30 ticks on node 1"),
            std::string::npos);
  EXPECT_NE(report.find("1. disk-hog 0.625000"), std::string::npos);
  EXPECT_NE(report.find("p@1=0.500000"), std::string::npos);
  // The causal engine's side of the head-to-head.
  EXPECT_NE(report.find("expected-metrics = "), std::string::npos);
  EXPECT_NE(report.find("1. disk_util_pct 0.500000"), std::string::npos);
  EXPECT_NE(report.find("causal: c@1=0.500000"), std::string::npos);

  // The engine-comparison table is console-only (its latency columns are
  // measured), but its shape is still asserted.
  const std::string comparison =
      RenderEngineComparison(SyntheticResult());
  EXPECT_NE(comparison.find("sig_ms"), std::string::npos);
  EXPECT_NE(comparison.find("causal_ms"), std::string::npos);
  EXPECT_NE(comparison.find("synthetic"), std::string::npos);
}

// ---------------------------------------------------------- golden gate --

TEST(GoldenGateTest, UpdateThenCheckThenDetectDrift) {
  const CampaignResult result = SyntheticResult();
  TempDir dir("golden");
  const std::string golden = (dir.path() / "golden").string();
  std::string message;

  // First check without goldens fails and says what is missing.
  Status status = CheckOrUpdateGolden(result, golden, /*update=*/false,
                                      &message);
  EXPECT_FALSE(status.ok());

  ASSERT_TRUE(
      CheckOrUpdateGolden(result, golden, /*update=*/true, &message).ok());
  EXPECT_TRUE(fs::exists(fs::path(golden) / "synthetic.report.txt"));

  ASSERT_TRUE(
      CheckOrUpdateGolden(result, golden, /*update=*/false, &message).ok());

  // Any byte of drift fails the gate and names the scenario.
  std::ofstream(fs::path(golden) / "synthetic.report.txt", std::ios::app)
      << "tampered\n";
  message.clear();
  status = CheckOrUpdateGolden(result, golden, /*update=*/false, &message);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(message.find("synthetic: report drifted"), std::string::npos);
}

// ---------------------------------------------------------- end to end --

TEST(CampaignEndToEndTest, MiniScenarioScoresAndStaysDeterministic) {
  const Result<Scenario> scenario = ParseScenario(kMiniScenario);
  ASSERT_TRUE(scenario.ok()) << scenario.status().message();

  CampaignOptions serial;
  serial.threads = 1;
  const Result<CampaignResult> first =
      RunCampaign({scenario.value()}, serial);
  ASSERT_TRUE(first.ok()) << first.status().message();
  const ScenarioScore& score = first.value().scores[0];
  EXPECT_EQ(score.test_runs, 2);
  EXPECT_EQ(static_cast<int>(score.runs.size()), 2);
  EXPECT_GE(score.precision_at_1, 0.0);
  EXPECT_LE(score.precision_at_1, 1.0);
  EXPECT_GE(score.recall, score.precision_at_1);
  EXPECT_GE(score.precision_at_k, score.precision_at_1);
  // The injected CPU hog must at least trip the detector.
  EXPECT_GT(score.detected, 0);

  // The whole scoreboard - not just the means - is byte-identical when the
  // same campaign runs on eight threads, and when it simply runs again.
  CampaignOptions wide;
  wide.threads = 8;
  const Result<CampaignResult> parallel =
      RunCampaign({scenario.value()}, wide);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  const Result<CampaignResult> again = RunCampaign({scenario.value()}, wide);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(RenderJson(first.value()), RenderJson(parallel.value()));
  EXPECT_EQ(RenderCsv(first.value()), RenderCsv(parallel.value()));
  EXPECT_EQ(RenderJson(parallel.value()), RenderJson(again.value()));
  EXPECT_EQ(RenderScenarioReport(first.value().scores[0]),
            RenderScenarioReport(parallel.value().scores[0]));
}

TEST(CampaignEndToEndTest, HoldOutScenarioScoresCausalEngineDeterministically) {
  const Result<Scenario> scenario = ParseScenario(kMiniHoldOutScenario);
  ASSERT_TRUE(scenario.ok()) << scenario.status().message();
  ASSERT_TRUE(scenario.value().hold_out);

  CampaignOptions serial;
  serial.threads = 1;
  const Result<CampaignResult> first =
      RunCampaign({scenario.value()}, serial);
  ASSERT_TRUE(first.ok()) << first.status().message();
  const ScenarioScore& score = first.value().scores[0];
  EXPECT_TRUE(score.hold_out);
  EXPECT_EQ(score.expected_metrics,
            DefaultCulpritMetrics(faults::FaultType::kCpuHog));

  // The signature engine cannot name a fault it never learned...
  EXPECT_EQ(score.top1_correct, 0);
  EXPECT_DOUBLE_EQ(score.precision_at_1, 0.0);
  // ...but every detected run still gets a causal suspect ranking.
  EXPECT_GT(score.detected, 0);
  for (const RunOutcome& run : score.runs) {
    if (!run.detected || run.num_violations == 0) continue;
    EXPECT_FALSE(run.suspects.empty());
    EXPECT_GE(run.causal_rank, 0);
  }
  EXPECT_GE(score.causal_recall_at_3, 0.0);
  EXPECT_LE(score.causal_recall_at_3, 1.0);
  // Hold-out scenarios feed the unknown-fault gate, not the known-fault one.
  EXPECT_EQ(first.value().known_scenarios, 0);
  EXPECT_EQ(first.value().holdout_scenarios, 1);
  EXPECT_DOUBLE_EQ(first.value().mean_causal_recall_at_3,
                   score.causal_recall_at_3);

  // Suspect rankings - scores included, rendered to full precision - are
  // byte-identical when the campaign runs on eight threads.
  CampaignOptions wide;
  wide.threads = 8;
  const Result<CampaignResult> parallel =
      RunCampaign({scenario.value()}, wide);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  EXPECT_EQ(RenderJson(first.value()), RenderJson(parallel.value()));
  EXPECT_EQ(RenderCsv(first.value()), RenderCsv(parallel.value()));
  EXPECT_EQ(RenderScenarioReport(first.value().scores[0]),
            RenderScenarioReport(parallel.value().scores[0]));
}

TEST(CampaignEndToEndTest, BundledScenarioFilesParse) {
  // The shipped campaign must always load; running it is the CI smoke
  // step's job, parsing it is ours.
  const fs::path dir = fs::path(INVARNETX_SOURCE_DIR) / "examples/scenarios";
  Result<std::vector<Scenario>> loaded = LoadScenarioDirectory(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_GE(loaded.value().size(), 10u);
  for (const Scenario& s : loaded.value()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GE(s.normal_runs, 2);
  }
}

}  // namespace
}  // namespace invarnetx::campaign
