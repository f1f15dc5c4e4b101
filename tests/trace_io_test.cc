#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/runner.h"
#include "telemetry/trace_io.h"

namespace invarnetx::telemetry {
namespace {

RunTrace SampleTrace() {
  RunConfig config;
  config.workload = workload::WorkloadType::kGrep;
  config.seed = 7;
  config.fault = FaultRequest{faults::FaultType::kDiskHog,
                              DefaultFaultWindow(faults::FaultType::kDiskHog)};
  return SimulateRun(config).value();
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const RunTrace original = SampleTrace();
  Result<RunTrace> parsed = ParseTraceCsv(WriteTraceCsv(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RunTrace& copy = parsed.value();
  EXPECT_EQ(copy.workload, original.workload);
  EXPECT_EQ(copy.ticks, original.ticks);
  EXPECT_DOUBLE_EQ(copy.duration_seconds, original.duration_seconds);
  EXPECT_EQ(copy.finished, original.finished);
  ASSERT_EQ(copy.nodes.size(), original.nodes.size());
  for (size_t n = 0; n < copy.nodes.size(); ++n) {
    EXPECT_EQ(copy.nodes[n].ip, original.nodes[n].ip);
    EXPECT_EQ(copy.nodes[n].cpi, original.nodes[n].cpi);  // exact: %.17g
    for (int m = 0; m < kNumMetrics; ++m) {
      EXPECT_EQ(copy.nodes[n].metrics[static_cast<size_t>(m)],
                original.nodes[n].metrics[static_cast<size_t>(m)])
          << MetricName(m);
    }
  }
  ASSERT_TRUE(copy.fault.has_value());
  EXPECT_EQ(copy.fault->type, faults::FaultType::kDiskHog);
  EXPECT_EQ(copy.fault->window.start_tick,
            original.fault->window.start_tick);
  ASSERT_EQ(copy.injected.size(), 1u);
}

TEST(TraceIoTest, RoundTripJobSpans) {
  SequenceConfig config;
  config.jobs = {workload::WorkloadType::kGrep,
                 workload::WorkloadType::kWordCount};
  config.seed = 8;
  const RunTrace original = SimulateJobSequence(config).value();
  Result<RunTrace> parsed = ParseTraceCsv(WriteTraceCsv(original));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().job_spans.size(), 2u);
  EXPECT_EQ(parsed.value().job_spans[1].type,
            workload::WorkloadType::kWordCount);
  EXPECT_EQ(parsed.value().job_spans[1].start_tick,
            original.job_spans[1].start_tick);
  EXPECT_EQ(parsed.value().job_spans[1].end_tick,
            original.job_spans[1].end_tick);
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "invarnetx_trace_test.csv")
          .string();
  const RunTrace original = SampleTrace();
  ASSERT_TRUE(WriteTraceFile(path, original).ok());
  Result<RunTrace> parsed = ReadTraceFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().ticks, original.ticks);
  std::filesystem::remove(path);
}

TEST(TraceIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTraceCsv("").ok());
  EXPECT_FALSE(ParseTraceCsv("not a trace\n").ok());
  EXPECT_FALSE(ParseTraceCsv("# invarnetx-trace v1\n").ok());  // no data
}

TEST(TraceIoTest, RejectsWrongColumnOrder) {
  std::string text = WriteTraceCsv(SampleTrace());
  // Swap two metric names in the column header.
  const size_t pos = text.find("cpu_user_pct");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "cpu_sys_pct,");
  EXPECT_FALSE(ParseTraceCsv(text).ok());
}

TEST(TraceIoTest, RejectsTruncatedRows) {
  std::string text = WriteTraceCsv(SampleTrace());
  // Chop the final line short.
  const size_t last_newline = text.find_last_of('\n', text.size() - 2);
  text = text.substr(0, last_newline + 30);
  EXPECT_FALSE(ParseTraceCsv(text).ok());
}

TEST(TraceIoTest, RejectsInconsistentTickCounts) {
  std::string text = WriteTraceCsv(SampleTrace());
  // Duplicate the final data row: its node then has one extra tick.
  const size_t last_newline = text.find_last_of('\n', text.size() - 2);
  text += text.substr(last_newline + 1);
  EXPECT_FALSE(ParseTraceCsv(text).ok());
}

TEST(TraceIoTest, MissingFileIsIoError) {
  Result<RunTrace> trace = ReadTraceFile("/does/not/exist.csv");
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace invarnetx::telemetry
