#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "obs/log.h"
#include "obs/span.h"

namespace invarnetx::cli {
namespace {

namespace fs = std::filesystem;

CommandLine Parse(std::vector<const char*> argv) {
  return ParseArgs(static_cast<int>(argv.size()), argv.data()).value();
}

// ------------------------------------------------------------- parsing ----

TEST(ParseArgsTest, SplitsOptionsAndPositionals) {
  const CommandLine args =
      Parse({"diagnose", "--store", "dir", "trace.csv", "--node", "ip"});
  EXPECT_EQ(args.command, "diagnose");
  EXPECT_EQ(args.Get("store", ""), "dir");
  EXPECT_EQ(args.Get("node", ""), "ip");
  EXPECT_EQ(args.Get("missing", "fallback"), "fallback");
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "trace.csv");
}

TEST(ParseArgsTest, BareOptionsParseAsBooleanFlags) {
  // Trailing `--flag`, and `--flag` followed by another option, both read
  // as "1" so commands can test them with Has().
  const CommandLine args =
      Parse({"campaign", "--update-golden", "--threads", "2", "--verbose"});
  EXPECT_EQ(args.Get("update-golden", ""), "1");
  EXPECT_EQ(args.Get("threads", ""), "2");
  EXPECT_TRUE(args.Has("verbose"));
  EXPECT_TRUE(args.positional.empty());
}

TEST(ParseArgsTest, RejectsEmpty) {
  EXPECT_FALSE(ParseArgs(0, nullptr).ok());
}

TEST(ParseArgsTest, AcceptsEqualsSpelling) {
  const CommandLine args =
      Parse({"diagnose", "--store=dir", "--log-level=debug", "trace.csv"});
  EXPECT_EQ(args.Get("store", ""), "dir");
  EXPECT_EQ(args.Get("log-level", ""), "debug");
  ASSERT_EQ(args.positional.size(), 1u);
  // An empty value after '=' is still a present option.
  const CommandLine empty = Parse({"diagnose", "--node="});
  EXPECT_TRUE(empty.Has("node"));
  EXPECT_EQ(empty.Get("node", "fallback"), "");
}

TEST(RunCommandTest, UnknownCommandShowsUsage) {
  std::string out;
  const Status status = RunCommand(Parse({"frobnicate"}), &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST(RunCommandTest, RejectsBadLogLevel) {
  std::string out;
  const Status status =
      RunCommand(Parse({"info", "--log-level", "loud", "x.csv"}), &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("loud"), std::string::npos);
}

// --------------------------------------------------------- full workflow --

class CliWorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "invarnetx_cli_test").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(CliWorkflowTest, SimulateTrainDiagnose) {
  std::string out;
  // 1. Generate training traces.
  std::vector<std::string> traces;
  for (int i = 0; i < 6; ++i) {
    const std::string path = Path("normal" + std::to_string(i) + ".csv");
    ASSERT_TRUE(RunSimulate(Parse({"simulate", "--workload", "grep", "--seed",
                                   std::to_string(300 + i).c_str(), "--out",
                                   path.c_str()}),
                            &out)
                    .ok())
        << out;
    traces.push_back(path);
  }
  // 2. Train a store.
  const std::string store = Path("store");
  std::vector<const char*> train_argv = {"train", "--node", "10.0.0.2",
                                         "--out", store.c_str()};
  for (const std::string& t : traces) train_argv.push_back(t.c_str());
  ASSERT_TRUE(RunTrain(Parse(train_argv), &out).ok()) << out;
  EXPECT_TRUE(fs::exists(store + "/models.xml"));
  EXPECT_TRUE(fs::exists(store + "/invariants.xml"));

  // 3. Teach one signature.
  const std::string hog = Path("hog.csv");
  ASSERT_TRUE(RunSimulate(Parse({"simulate", "--workload", "grep", "--seed",
                                 "900", "--fault", "cpu-hog", "--out",
                                 hog.c_str()}),
                          &out)
                  .ok());
  ASSERT_TRUE(RunAddSignature(Parse({"add-signature", "--store",
                                     store.c_str(), "--problem", "cpu-hog",
                                     "--node", "10.0.0.2", hog.c_str()}),
                              &out)
                  .ok())
      << out;

  // 4. Diagnose a fresh incident.
  const std::string incident = Path("incident.csv");
  ASSERT_TRUE(RunSimulate(Parse({"simulate", "--workload", "grep", "--seed",
                                 "999", "--fault", "cpu-hog", "--out",
                                 incident.c_str()}),
                          &out)
                  .ok());
  out.clear();
  ASSERT_TRUE(RunDiagnose(Parse({"diagnose", "--store", store.c_str(),
                                 "--node", "10.0.0.2", incident.c_str()}),
                          &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("ANOMALY"), std::string::npos) << out;
  EXPECT_NE(out.find("cpu-hog"), std::string::npos) << out;

  // 5. Info prints metadata.
  out.clear();
  ASSERT_TRUE(RunInfo(Parse({"info", incident.c_str()}), &out).ok());
  EXPECT_NE(out.find("grep"), std::string::npos);
  EXPECT_NE(out.find("fault cpu-hog"), std::string::npos);
}

TEST_F(CliWorkflowTest, SimulateJobsQueue) {
  std::string out;
  const std::string path = Path("seq.csv");
  ASSERT_TRUE(RunSimulate(Parse({"simulate", "--jobs", "grep,wordcount",
                                 "--seed", "5", "--out", path.c_str()}),
                          &out)
                  .ok())
      << out;
  out.clear();
  ASSERT_TRUE(RunInfo(Parse({"info", path.c_str()}), &out).ok());
  EXPECT_NE(out.find("job grep["), std::string::npos) << out;
  EXPECT_NE(out.find("job wordcount["), std::string::npos) << out;
  // Interactive jobs cannot queue.
  EXPECT_FALSE(RunSimulate(Parse({"simulate", "--jobs", "grep,tpcds",
                                  "--out", Path("bad.csv").c_str()}),
                           &out)
                   .ok());
}

TEST_F(CliWorkflowTest, SimulateValidatesInput) {
  std::string out;
  EXPECT_FALSE(RunSimulate(Parse({"simulate", "--workload", "bogus", "--out",
                                  Path("x.csv").c_str()}),
                           &out)
                   .ok());
  EXPECT_FALSE(RunSimulate(Parse({"simulate", "--workload", "grep", "--fault",
                                  "bogus", "--out", Path("x.csv").c_str()}),
                           &out)
                   .ok());
}

TEST_F(CliWorkflowTest, TrainValidatesOptions) {
  std::string out;
  EXPECT_FALSE(RunTrain(Parse({"train", "--out", Path("s").c_str()}), &out)
                   .ok());  // no --node
  EXPECT_FALSE(
      RunTrain(Parse({"train", "--node", "10.0.0.2", "--out",
                      Path("s").c_str()}),
               &out)
          .ok());  // no traces
  // Unknown node ip in an otherwise valid trace.
  const std::string trace = Path("t.csv");
  ASSERT_TRUE(RunSimulate(Parse({"simulate", "--workload", "grep", "--seed",
                                 "1", "--out", trace.c_str()}),
                          &out)
                  .ok());
  EXPECT_FALSE(RunTrain(Parse({"train", "--node", "1.2.3.4", "--out",
                               Path("s").c_str(), trace.c_str()}),
                        &out)
                   .ok());
}

TEST_F(CliWorkflowTest, SequenceTraceDiagnosedPerJobSpan) {
  std::string out;
  // Train a grep store.
  std::vector<std::string> traces;
  for (int i = 0; i < 6; ++i) {
    const std::string path = Path("g" + std::to_string(i) + ".csv");
    ASSERT_TRUE(RunSimulate(Parse({"simulate", "--workload", "grep", "--seed",
                                   std::to_string(500 + i).c_str(), "--out",
                                   path.c_str()}),
                            &out)
                    .ok());
    traces.push_back(path);
  }
  const std::string store = Path("store_seq");
  std::vector<const char*> train_argv = {"train", "--node", "10.0.0.2",
                                         "--out", store.c_str()};
  for (const std::string& t : traces) train_argv.push_back(t.c_str());
  ASSERT_TRUE(RunTrain(Parse(train_argv), &out).ok()) << out;

  // A two-job queue trace: diagnosis must go span by span, reporting the
  // grep span against the trained context and the wordcount span as
  // untrained.
  const std::string seq = Path("seq.csv");
  ASSERT_TRUE(RunSimulate(Parse({"simulate", "--jobs", "grep,wordcount",
                                 "--seed", "5", "--out", seq.c_str()}),
                          &out)
                  .ok());
  out.clear();
  ASSERT_TRUE(RunDiagnose(Parse({"diagnose", "--store", store.c_str(),
                                 seq.c_str()}),
                          &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("== job 0 (grep"), std::string::npos) << out;
  EXPECT_NE(out.find("== job 1 (wordcount"), std::string::npos) << out;
  EXPECT_NE(out.find("context not trained"), std::string::npos) << out;
  // Each span block is the single-trace output: its verdict lines, not a
  // format of its own.
  EXPECT_TRUE(out.find("\n10.0.0.2: no anomaly\n") != std::string::npos ||
              out.find("\n10.0.0.2: ANOMALY at tick ") != std::string::npos)
      << out;
  EXPECT_EQ(out.find("healthy"), std::string::npos) << out;
  EXPECT_EQ(out.find("ANOMALOUS"), std::string::npos) << out;

  // One incident report cannot cover several jobs: --report is refused, not
  // silently dropped.
  const Status refused =
      RunDiagnose(Parse({"diagnose", "--store", store.c_str(), "--report",
                         Path("seq.md").c_str(), seq.c_str()}),
                  &out);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();
  EXPECT_FALSE(fs::exists(Path("seq.md")));
}

TEST_F(CliWorkflowTest, DiagnoseNeedsStore) {
  std::string out;
  EXPECT_FALSE(
      RunDiagnose(Parse({"diagnose", Path("none.csv").c_str()}), &out).ok());
}

// ---------------------------------------------------------- observability --

TEST_F(CliWorkflowTest, StatsDumpsTheMetricsRegistry) {
  std::string out;
  ASSERT_TRUE(RunCommand(Parse({"stats", "--workload", "grep", "--runs", "2"}),
                         &out)
                  .ok())
      << out;
  // The built-in self-exercise must light up the pipeline, cache, and
  // thread-pool instrumentation.
  EXPECT_NE(out.find("counter pipeline.train_calls"), std::string::npos) << out;
  EXPECT_NE(out.find("counter assoc_cache.hits"), std::string::npos);
  EXPECT_NE(out.find("counter threadpool.tasks_executed"), std::string::npos);
  EXPECT_NE(out.find("histogram span.diagnose"), std::string::npos);
  EXPECT_NE(out.find("# cost: "), std::string::npos);

  out.clear();
  ASSERT_TRUE(RunStats(Parse({"stats", "--workload", "grep", "--runs", "2",
                              "--format", "json"}),
                       &out)
                  .ok());
  EXPECT_TRUE(obs::ValidateJson(out).ok()) << out;
  EXPECT_NE(out.find("\"counters\""), std::string::npos);

  EXPECT_FALSE(
      RunStats(Parse({"stats", "--format", "xml"}), &out).ok());
  EXPECT_FALSE(
      RunStats(Parse({"stats", "--workload", "bogus"}), &out).ok());
}

TEST_F(CliWorkflowTest, TraceOutWritesValidChromeTrace) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Shared();
  recorder.SetEnabled(false);
  recorder.Clear();

  std::string out;
  const std::string trace_path = Path("cli_trace.json");
  ASSERT_TRUE(RunCommand(Parse({"stats", "--workload", "grep", "--runs", "2",
                                "--trace-out", trace_path.c_str()}),
                         &out)
                  .ok())
      << out;
  recorder.SetEnabled(false);
  recorder.Clear();
  EXPECT_NE(out.find("wrote trace events to"), std::string::npos) << out;

  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  size_t num_events = 0;
  ASSERT_TRUE(obs::ValidateChromeTrace(buffer.str(), &num_events).ok())
      << buffer.str();
  EXPECT_GT(num_events, 0u);
  // The end-to-end self-exercise covers training, detection, diagnosis and
  // the association matrix, so all four stage spans must appear.
  for (const char* stage :
       {"train_context", "mine_invariants", "detect", "diagnose",
        "assoc_matrix"}) {
    EXPECT_NE(buffer.str().find(stage), std::string::npos) << stage;
  }
}

}  // namespace
}  // namespace invarnetx::cli
