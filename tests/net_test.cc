// Tests for the TCP ingest front end (src/net): frame codec round trips and
// strict decode errors, a golden TICK layout, buffer-reusing encode / read /
// decode (bit-identical to the fresh codec and allocation-free once warm),
// oversized / truncated / mid-frame-disconnect wire handling, full loopback
// sessions in both dialects, protocol errors (ERR + close),
// one-session-at-a-time busy rejection, deterministic socket backpressure,
// byte-identical verdicts across shard x thread configs, and an
// xmlstore-fuzz-style random-bytes harness against the listener.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluate.h"
#include "net/frame.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/wire.h"
#include "serve/fleet.h"
#include "serve/replay.h"

// Replaces the global allocation functions; this is net_test's only
// translation unit.
#include "alloc_counter.h"

namespace invarnetx {
namespace {

using testing_alloc::HeapAllocations;

using core::InvarNetX;
using core::OperationContext;
using net::Frame;
using net::FrameType;
using net::HelloEntry;
using net::IngestClient;
using net::IngestClientOptions;
using net::IngestServer;
using net::IngestServerOptions;
using net::TickOutcome;
using serve::FleetConfig;
using serve::MonitorFleet;
using serve::MonitorHandle;
using serve::TickSample;
using workload::WorkloadType;

OperationContext Context(int node) {
  return OperationContext{WorkloadType::kWordCount,
                          "10.0.0." + std::to_string(node + 1)};
}

std::string ContextToken(int node) { return Context(node).ToString(); }

// One handle-stamped sample for `node` at tick `t` of the trace.
TickSample SampleAt(const telemetry::RunTrace& trace, int node,
                    MonitorHandle handle, size_t t) {
  const telemetry::NodeTrace& series = trace.nodes[static_cast<size_t>(node)];
  TickSample sample;
  sample.monitor = handle;
  sample.cpi = series.cpi[t];
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    sample.metrics[static_cast<size_t>(m)] =
        series.metrics[static_cast<size_t>(m)][t];
  }
  return sample;
}

// Raw loopback connection to a server port; -1 on failure.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// `count` samples whose handles and doubles are arbitrary bit patterns (NaN
// payloads, denormals and negative zero among them): the codec must carry
// raw bits, not values.
std::vector<TickSample> RandomBatch(size_t count, std::mt19937_64* rng) {
  std::vector<TickSample> samples(count);
  for (TickSample& sample : samples) {
    sample.monitor = static_cast<MonitorHandle>((*rng)());
    const uint64_t cpi_bits = (*rng)();
    std::memcpy(&sample.cpi, &cpi_bits, sizeof(double));
    for (double& metric : sample.metrics) {
      const uint64_t bits = (*rng)();
      std::memcpy(&metric, &bits, sizeof(double));
    }
  }
  return samples;
}

// Whether two batches agree bit for bit.
bool SameBits(const std::vector<TickSample>& a,
              const std::vector<TickSample>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].monitor != b[i].monitor ||
        !BitsEqual(a[i].cpi, b[i].cpi) ||
        std::memcmp(a[i].metrics.data(), b[i].metrics.data(),
                    sizeof(a[i].metrics)) != 0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Codec unit tests (no sockets).
// ---------------------------------------------------------------------------

TEST(FrameCodecTest, HelloRoundTrip) {
  const std::vector<HelloEntry> entries = {{"wordcount", "10.0.0.2"},
                                           {"sort", "10.0.0.3"}};
  const std::string frame = net::EncodeHello(entries).value();
  // Length prefix covers type + payload.
  ASSERT_GE(frame.size(), 5u);
  EXPECT_EQ(frame[4], static_cast<char>(FrameType::kHello));
  const auto decoded = net::DecodeHello(frame.substr(5));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].workload, "wordcount");
  EXPECT_EQ(decoded.value()[0].node_ip, "10.0.0.2");
  EXPECT_EQ(decoded.value()[1].workload, "sort");
  EXPECT_EQ(decoded.value()[1].node_ip, "10.0.0.3");
}

TEST(FrameCodecTest, HelloAckRoundTrip) {
  const std::vector<MonitorHandle> handles = {0, 7, 2147483647, -1};
  const std::string frame = net::EncodeHelloAck(handles);
  const auto decoded = net::DecodeHelloAck(frame.substr(5));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), handles);
}

TEST(FrameCodecTest, TickRoundTripIsBitExact) {
  // Awkward doubles: negative zero, denormal, huge, and a repeating
  // fraction - the binary codec must round trip raw bits.
  std::vector<TickSample> samples(2);
  samples[0].monitor = 3;
  samples[0].cpi = -0.0;
  samples[0].metrics[0] = 5e-324;          // smallest denormal
  samples[0].metrics[25] = 1.0 / 3.0;
  samples[1].monitor = 0;
  samples[1].cpi = 1.7976931348623157e308;  // DBL_MAX
  samples[1].metrics[7] = -123.456789;

  const std::string frame = net::EncodeTick(samples);
  EXPECT_EQ(frame.size(), 5 + 4 + 2 * net::kBinarySampleBytes);
  const auto decoded = net::DecodeTick(frame.substr(5));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), 2u);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].monitor, samples[i].monitor);
    EXPECT_TRUE(BitsEqual(decoded.value()[i].cpi, samples[i].cpi));
    for (int m = 0; m < telemetry::kNumMetrics; ++m) {
      EXPECT_TRUE(BitsEqual(decoded.value()[i].metrics[static_cast<size_t>(m)],
                            samples[i].metrics[static_cast<size_t>(m)]));
    }
  }
}

// Round trips alone would still pass if the encoder and the decoder changed
// together; this pins the little-endian layout of one TICK frame.
TEST(FrameCodecTest, TickFrameMatchesGoldenBytes) {
  TickSample sample;
  sample.monitor = -2;
  sample.cpi = -0.0;
  sample.metrics[1] = 5e-324;  // smallest denormal: bit pattern 1
  std::string golden(
      "\xe1\x00\x00\x00"                   // length 225: type + payload
      "\x03"                               // TICK
      "\x01\x00\x00\x00"                   // 1 sample
      "\xfe\xff\xff\xff"                   // handle -2
      "\x00\x00\x00\x00\x00\x00\x00\x80",  // cpi -0.0
      21);
  golden += std::string(8, '\0');                                // metric 0
  golden += std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8);  // metric 1
  golden += std::string(24 * 8, '\0');                           // 2..25
  ASSERT_EQ(golden.size(), 5 + 4 + net::kBinarySampleBytes);

  EXPECT_EQ(net::EncodeTick({sample}), golden);
  std::string reused(1000, 'x');  // a longer frame sent earlier
  net::EncodeTickInto({sample}, &reused);
  EXPECT_EQ(reused, golden);

  const auto decoded = net::DecodeTick(std::string_view(golden).substr(5));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(SameBits(decoded.value(), {sample}));
}

// The client's frame buffer, a session's Frame and its sample batch are
// each reused for every TICK. Across batches that shrink, grow and empty,
// and a lying-count payload that must fail without touching the batch,
// every reused encode is byte-identical to a fresh EncodeTick and every
// reused decode bit-identical to a fresh DecodeTick.
TEST(FrameCodecTest, ReusedBuffersMatchFreshCodec) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::mt19937_64 rng(20261019);
  std::string frame;
  Frame read;
  std::vector<TickSample> batch(8);  // longer than any batch below

  for (const size_t count : {3u, 1u, 5u, 0u}) {
    SCOPED_TRACE(std::to_string(count) + " samples");
    const std::vector<TickSample> samples = RandomBatch(count, &rng);
    net::EncodeTickInto(samples, &frame);
    EXPECT_EQ(frame, net::EncodeTick(samples));
    ASSERT_TRUE(net::WriteAll(fds[0], frame));
    ASSERT_TRUE(
        net::ReadFrameInto(fds[1], net::kDefaultMaxFramePayload, &read).ok());
    EXPECT_EQ(read.type, FrameType::kTick);
    EXPECT_EQ(read.payload, frame.substr(5));
    ASSERT_TRUE(net::DecodeTickInto(read.payload, &batch).ok());
    const auto fresh = net::DecodeTick(std::string_view(frame).substr(5));
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_TRUE(SameBits(batch, fresh.value()));
    EXPECT_TRUE(SameBits(batch, samples));

    if (count == 5) {
      // Claims 2 samples, ships 1: an error, and the batch keeps the 5.
      std::string lying = net::EncodeTick(RandomBatch(1, &rng));
      lying[5] = 2;
      ASSERT_TRUE(net::WriteAll(fds[0], lying));
      ASSERT_TRUE(
          net::ReadFrameInto(fds[1], net::kDefaultMaxFramePayload, &read)
              .ok());
      EXPECT_FALSE(net::DecodeTickInto(read.payload, &batch).ok());
      EXPECT_FALSE(net::DecodeTick(read.payload).ok());
      EXPECT_TRUE(SameBits(batch, samples));
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// Once warmed up on a same-size batch, the buffer-reusing TICK path - encode
// into the client's buffer, ReadFrameInto the session's Frame over a
// socket, decode into its batch - makes no heap allocation.
TEST(FrameCodecTest, ReusedTickBuffersDoNotAllocate) {
  constexpr size_t kSamples = 2000;
  constexpr int kRounds = 4;  // round 0 warms the buffers up
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::mt19937_64 rng(7);
  std::vector<std::vector<TickSample>> batches;
  for (int r = 0; r < kRounds; ++r) {
    batches.push_back(RandomBatch(kSamples, &rng));
  }
  std::string frame;
  Frame read;
  std::vector<TickSample> batch;

  // A 440 KB frame outgrows the socket buffer, so a second thread writes
  // while this one reads. It starts, and every result is checked, outside
  // the counted spans.
  std::atomic<int> requested{0};
  std::atomic<int> sent{0};
  bool write_ok[kRounds] = {};
  std::thread writer([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (requested.load(std::memory_order_acquire) <= r) {
        std::this_thread::yield();
      }
      write_ok[r] = net::WriteAll(fds[0], frame.data(), frame.size());
      sent.store(r + 1, std::memory_order_release);
    }
  });
  uint64_t allocations[kRounds] = {};
  bool read_ok[kRounds] = {};
  bool decode_ok[kRounds] = {};
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t before = HeapAllocations();
    net::EncodeTickInto(batches[static_cast<size_t>(r)], &frame);
    requested.store(r + 1, std::memory_order_release);
    read_ok[r] =
        net::ReadFrameInto(fds[1], net::kDefaultMaxFramePayload, &read).ok();
    decode_ok[r] = net::DecodeTickInto(read.payload, &batch).ok();
    allocations[r] = HeapAllocations() - before;
    // A failed read would leave the writer blocked on a full socket.
    if (!read_ok[r]) ::shutdown(fds[1], SHUT_RDWR);
    while (sent.load(std::memory_order_acquire) <= r) {
      std::this_thread::yield();
    }
  }
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);

  for (int r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(write_ok[r] && read_ok[r] && decode_ok[r]) << "round " << r;
    if (r > 0) {
      EXPECT_EQ(allocations[r], 0u) << "round " << r;
    }
  }
  EXPECT_TRUE(SameBits(batch, batches.back()));
}

TEST(FrameCodecTest, TickReplyPicksBackpressureType) {
  const std::string ok = net::EncodeTickReply(TickOutcome{5, 0});
  EXPECT_EQ(ok[4], static_cast<char>(FrameType::kTickAck));
  const std::string pressed = net::EncodeTickReply(TickOutcome{3, 2});
  EXPECT_EQ(pressed[4], static_cast<char>(FrameType::kBackpressure));
  const auto decoded = net::DecodeTickReply(pressed.substr(5));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().accepted, 3u);
  EXPECT_EQ(decoded.value().rejected, 2u);
}

TEST(FrameCodecTest, DecodersRejectMalformedPayloads) {
  // Truncated HELLO: chop any suffix off a valid payload.
  const std::string hello =
      net::EncodeHello({{"wordcount", "10.0.0.2"}}).value().substr(5);
  for (size_t keep = 0; keep < hello.size(); ++keep) {
    EXPECT_FALSE(net::DecodeHello(hello.substr(0, keep)).ok())
        << "undetected truncation at " << keep;
  }
  // Trailing garbage after the declared entries.
  EXPECT_FALSE(net::DecodeHello(hello + "x").ok());
  // Unsupported version.
  std::string bad_version = hello;
  bad_version[0] = 9;
  EXPECT_FALSE(net::DecodeHello(bad_version).ok());
  // Zero contexts.
  const std::string no_entries("\x01\x00\x00\x00\x00\x00", 6);
  EXPECT_FALSE(net::DecodeHello(no_entries).ok());

  // HELLO-ACK with trailing bytes.
  const std::string ack = net::EncodeHelloAck({1}).substr(5);
  EXPECT_FALSE(net::DecodeHelloAck(ack + "zz").ok());
  EXPECT_FALSE(net::DecodeHelloAck(ack.substr(0, ack.size() - 1)).ok());

  // TICK whose payload size disagrees with its count, both ways.
  std::vector<TickSample> one(1);
  const std::string tick = net::EncodeTick(one).substr(5);
  EXPECT_FALSE(net::DecodeTick(tick.substr(0, tick.size() - 1)).ok());
  EXPECT_FALSE(net::DecodeTick(tick + "x").ok());
  std::string lying_count = tick;
  lying_count[0] = 2;  // claims 2 samples, ships 1
  EXPECT_FALSE(net::DecodeTick(lying_count).ok());

  // Fixed-size replies with the wrong size.
  EXPECT_FALSE(net::DecodeTickReply("1234567").ok());
  EXPECT_FALSE(net::DecodeTickReply("123456789").ok());
  EXPECT_FALSE(net::DecodeEndJobAck("123").ok());
  EXPECT_FALSE(net::DecodeEndJobAck("12345").ok());
}

// A tiny payload claiming a huge entry count must be rejected *before* any
// count-sized allocation: a 10-byte HELLO declaring 2^32-1 entries would
// otherwise reserve ~256 GB and kill the serve process with bad_alloc.
TEST(FrameCodecTest, LyingCountsAreRejectedBeforeAllocation) {
  // version=1, count=0xFFFFFFFF, then nothing.
  const std::string hello("\x01\x00\xff\xff\xff\xff", 6);
  const auto decoded_hello = net::DecodeHello(hello);
  ASSERT_FALSE(decoded_hello.ok());
  EXPECT_NE(decoded_hello.status().message().find("does not fit"),
            std::string::npos)
      << decoded_hello.status().ToString();

  // count=0xFFFFFFFF, then a single stale handle.
  const std::string ack("\xff\xff\xff\xff\x01\x00\x00\x00", 8);
  const auto decoded_ack = net::DecodeHelloAck(ack);
  ASSERT_FALSE(decoded_ack.ok());
  EXPECT_NE(decoded_ack.status().message().find("does not match"),
            std::string::npos)
      << decoded_ack.status().ToString();
}

// str8 fields cap at 255 bytes; encoding must fail loudly instead of
// masking the length and shipping a desynced frame.
TEST(FrameCodecTest, EncodeHelloRejectsOverlongContextFields) {
  const std::string overlong(256, 'w');
  EXPECT_FALSE(net::EncodeHello({{overlong, "10.0.0.2"}}).ok());
  EXPECT_FALSE(net::EncodeHello({{"wordcount", overlong}}).ok());
  // 255 exactly is still legal.
  const std::string at_limit(255, 'w');
  const auto frame = net::EncodeHello({{at_limit, "10.0.0.2"}});
  ASSERT_TRUE(frame.ok());
  const auto decoded = net::DecodeHello(frame.value().substr(5));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value()[0].workload, at_limit);
}

TEST(FrameCodecTest, ReadFrameEnforcesLengthBounds) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  // Oversized declared length is rejected before any payload allocation.
  const char huge[4] = {'\xff', '\xff', '\xff', '\x7f'};
  ASSERT_TRUE(net::WriteAll(fds[0], huge, 4));
  auto oversized = net::ReadFrame(fds[1], 1024);
  ASSERT_FALSE(oversized.ok());
  EXPECT_NE(oversized.status().message().find("oversized"),
            std::string::npos);

  // Zero-length frames are invalid (every frame carries a type byte).
  const char zero[4] = {0, 0, 0, 0};
  ASSERT_TRUE(net::WriteAll(fds[0], zero, 4));
  EXPECT_FALSE(net::ReadFrame(fds[1], 1024).ok());

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FrameCodecTest, ReadFrameReportsMidFrameDisconnect) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Declare 100 payload bytes, deliver 10, hang up.
  const std::string frame = net::EncodeFrame(FrameType::kTick,
                                             std::string(99, 'x'));
  ASSERT_TRUE(net::WriteAll(fds[0], frame.substr(0, 15)));
  ::close(fds[0]);
  auto result = net::ReadFrame(fds[1], net::kDefaultMaxFramePayload);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  ::close(fds[1]);
}

TEST(FrameCodecTest, SampleLineRoundTripsBitExact) {
  TickSample sample;
  sample.monitor = 42;
  sample.cpi = 1.0 / 3.0;
  sample.metrics[0] = -0.0;
  sample.metrics[5] = 123456.789012345678;
  sample.metrics[25] = 2.2250738585072014e-308;
  const auto parsed = net::ParseSampleLine(net::FormatSampleLine(sample));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().monitor, 42);
  EXPECT_TRUE(BitsEqual(parsed.value().cpi, sample.cpi));
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    EXPECT_TRUE(BitsEqual(parsed.value().metrics[static_cast<size_t>(m)],
                          sample.metrics[static_cast<size_t>(m)]));
  }
}

TEST(FrameCodecTest, SampleLineRejectsMalformedLines) {
  EXPECT_FALSE(net::ParseSampleLine("").ok());
  EXPECT_FALSE(net::ParseSampleLine("notanumber 1 2").ok());
  // Only 3 of the 26 metrics.
  EXPECT_FALSE(net::ParseSampleLine("0 1.0 0.1 0.2 0.3").ok());
  // One field too many.
  TickSample sample;
  sample.monitor = 0;
  const std::string line = net::FormatSampleLine(sample);
  EXPECT_FALSE(net::ParseSampleLine(line + " 9").ok());
  // Handles outside 0..INT32_MAX: a negative one, and ones a narrowing cast
  // would wrap onto another handle (4294967297 onto monitor 1).
  const std::string doubles = line.substr(line.find(' '));
  for (const char* handle :
       {"-1", "2147483648", "4294967297", "99999999999999999999"}) {
    const Result<TickSample> parsed = net::ParseSampleLine(handle + doubles);
    ASSERT_FALSE(parsed.ok()) << handle;
    EXPECT_EQ(parsed.status().message(), "sample line: bad handle") << handle;
  }
  const Result<TickSample> largest =
      net::ParseSampleLine("2147483647" + doubles);
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest.value().monitor, 2147483647);
}

// ---------------------------------------------------------------------------
// Loopback session tests against a real fleet.
// ---------------------------------------------------------------------------

// One trained pipeline shared by the session tests: contexts for slaves 1
// to 4, with the cpu-hog signature taught to slave 1 (the fault victim).
class IngestSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new InvarNetX();
    auto normal = core::SimulateNormalRuns(WorkloadType::kWordCount, 8, 42);
    ASSERT_TRUE(normal.ok());
    for (int node = 1; node <= 4; ++node) {
      ASSERT_TRUE(pipeline_
                      ->TrainContext(Context(node), normal.value(),
                                     static_cast<size_t>(node))
                      .ok());
    }
    for (uint64_t rep = 0; rep < 2; ++rep) {
      auto run = core::SimulateFaultRun(WorkloadType::kWordCount,
                                        faults::FaultType::kCpuHog, 900 + rep);
      ASSERT_TRUE(run.ok());
      ASSERT_TRUE(
          pipeline_->AddSignature(Context(1), "cpu-hog", run.value(), 1).ok());
    }
    faulty_ = new telemetry::RunTrace();
    auto faulty = core::SimulateFaultRun(WorkloadType::kWordCount,
                                         faults::FaultType::kCpuHog, 888);
    ASSERT_TRUE(faulty.ok());
    *faulty_ = std::move(faulty.value());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete faulty_;
    pipeline_ = nullptr;
    faulty_ = nullptr;
  }

  // Streams `run` (slaves 1 and 2) through a connected client as one job
  // and returns the EndJob alarm count.
  static uint32_t StreamRun(IngestClient* client,
                            const telemetry::RunTrace& run) {
    auto handles = client->Hello(
        {{"wordcount", Context(1).node_ip}, {"wordcount", Context(2).node_ip}});
    EXPECT_TRUE(handles.ok()) << handles.status().ToString();
    EXPECT_TRUE(client->StartJob().ok());
    for (size_t t = 0; t < run.nodes[1].cpi.size(); ++t) {
      auto outcome = client->Tick({SampleAt(run, 1, handles.value()[0], t),
                                   SampleAt(run, 2, handles.value()[1], t)});
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome.value().accepted, 2u);
      EXPECT_EQ(outcome.value().rejected, 0u);
    }
    auto alarms = client->EndJob();
    EXPECT_TRUE(alarms.ok()) << alarms.status().ToString();
    EXPECT_TRUE(client->Bye().ok());
    return alarms.ok() ? alarms.value() : 0;
  }

  // The reference: the same run ingested in-process and rendered through
  // the same RenderVerdicts path.
  static std::string InProcessVerdicts(FleetConfig config) {
    MonitorFleet fleet(pipeline_, config);
    std::vector<serve::ArmedContext> armed;
    for (int node = 1; node <= 2; ++node) {
      auto handle = fleet.StartJob(Context(node));
      EXPECT_TRUE(handle.ok());
      armed.push_back(serve::ArmedContext{Context(node), handle.value()});
    }
    for (size_t t = 0; t < faulty_->nodes[1].cpi.size(); ++t) {
      auto summary = fleet.IngestTick(
          {SampleAt(*faulty_, 1, armed[0].handle, t),
           SampleAt(*faulty_, 2, armed[1].handle, t)});
      EXPECT_TRUE(summary.ok());
    }
    fleet.WaitForDiagnoses();
    std::ostringstream out;
    out << "== run 0 ==\n";
    serve::RenderVerdicts(fleet, armed, fleet.TakeDiagnoses(), &out);
    return out.str();
  }

  static InvarNetX* pipeline_;
  static telemetry::RunTrace* faulty_;
};

InvarNetX* IngestSessionTest::pipeline_ = nullptr;
telemetry::RunTrace* IngestSessionTest::faulty_ = nullptr;

TEST_F(IngestSessionTest, BinarySessionMatchesInProcessVerdicts) {
  FleetConfig config;
  config.threads = 1;
  config.shards = 1;
  MonitorFleet fleet(pipeline_, config);
  std::ostringstream verdicts;
  IngestServer server(&fleet, &verdicts, {});
  ASSERT_TRUE(server.Start().ok());

  IngestClientOptions options;
  options.port = server.port();
  IngestClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  const uint32_t alarms = StreamRun(&client, *faulty_);
  EXPECT_GE(alarms, 1u);

  const net::SessionStats stats = server.WaitForSession();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.runs, 1);
  EXPECT_EQ(stats.total_alarms, alarms);
  server.Stop();

  EXPECT_EQ(verdicts.str(), InProcessVerdicts(config));
  EXPECT_NE(verdicts.str().find("10.0.0.2: ALARM"), std::string::npos)
      << verdicts.str();
  EXPECT_NE(verdicts.str().find("cpu-hog"), std::string::npos);
}

// A session decodes every TICK into one batch it keeps, so a tick shorter
// than the one before must shrink it. Ticks alternate 4 samples (slaves
// 1-4) and 2 (slaves 1-2): the server must accept 4, 2, 4, ... and render
// the verdicts of an in-process fleet fed the same ticks - a replayed tail
// would be accepted as 4 and observed twice.
TEST_F(IngestSessionTest, ShorterTickNeverReplaysAnEarlierTail) {
  FleetConfig config;
  config.threads = 1;
  config.shards = 1;
  const size_t ticks = faulty_->nodes[1].cpi.size();
  const auto tick_samples = [](const std::vector<MonitorHandle>& handles,
                               size_t t) {
    std::vector<TickSample> samples;
    const int nodes = t % 2 == 0 ? 4 : 2;
    for (int node = 1; node <= nodes; ++node) {
      samples.push_back(SampleAt(*faulty_, node,
                                 handles[static_cast<size_t>(node - 1)], t));
    }
    return samples;
  };

  std::string expected;
  {
    MonitorFleet fleet(pipeline_, config);
    std::vector<serve::ArmedContext> armed;
    std::vector<MonitorHandle> handles;
    for (int node = 1; node <= 4; ++node) {
      auto handle = fleet.StartJob(Context(node));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      armed.push_back(serve::ArmedContext{Context(node), handle.value()});
      handles.push_back(handle.value());
    }
    for (size_t t = 0; t < ticks; ++t) {
      ASSERT_TRUE(fleet.IngestTick(tick_samples(handles, t)).ok());
    }
    fleet.WaitForDiagnoses();
    std::ostringstream out;
    out << "== run 0 ==\n";
    serve::RenderVerdicts(fleet, armed, fleet.TakeDiagnoses(), &out);
    expected = out.str();
  }

  MonitorFleet fleet(pipeline_, config);
  std::ostringstream verdicts;
  IngestServer server(&fleet, &verdicts, {});
  ASSERT_TRUE(server.Start().ok());
  IngestClientOptions options;
  options.port = server.port();
  IngestClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  std::vector<HelloEntry> entries;
  for (int node = 1; node <= 4; ++node) {
    entries.push_back({"wordcount", Context(node).node_ip});
  }
  auto handles = client.Hello(entries);
  ASSERT_TRUE(handles.ok()) << handles.status().ToString();
  ASSERT_TRUE(client.StartJob().ok());
  for (size_t t = 0; t < ticks; ++t) {
    auto outcome = client.Tick(tick_samples(handles.value(), t));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.value().accepted, t % 2 == 0 ? 4u : 2u) << "tick " << t;
    EXPECT_EQ(outcome.value().rejected, 0u);
  }
  ASSERT_TRUE(client.EndJob().ok());
  ASSERT_TRUE(client.Bye().ok());
  EXPECT_TRUE(server.WaitForSession().completed);
  server.Stop();
  EXPECT_EQ(verdicts.str(), expected);
}

TEST_F(IngestSessionTest, TextSessionMatchesBinarySession) {
  std::string binary_verdicts;
  std::string text_verdicts;
  for (const bool text : {false, true}) {
    FleetConfig config;
    config.threads = 1;
    config.shards = 1;
    MonitorFleet fleet(pipeline_, config);
    std::ostringstream verdicts;
    IngestServer server(&fleet, &verdicts, {});
    ASSERT_TRUE(server.Start().ok());
    IngestClientOptions options;
    options.port = server.port();
    options.text = text;
    IngestClient client(options);
    ASSERT_TRUE(client.Connect().ok());
    StreamRun(&client, *faulty_);
    EXPECT_TRUE(server.WaitForSession().completed);
    server.Stop();
    (text ? text_verdicts : binary_verdicts) = verdicts.str();
  }
  EXPECT_EQ(binary_verdicts, text_verdicts);
  EXPECT_FALSE(binary_verdicts.empty());
}

// The acceptance matrix: socket-fed verdicts are identical across every
// shard x thread combination (and identical to the in-process reference).
TEST_F(IngestSessionTest, VerdictsByteIdenticalAcrossShardsAndThreads) {
  std::string reference;
  for (const int shards : {1, 2, 8}) {
    for (const int threads : {1, 4}) {
      FleetConfig config;
      config.threads = threads;
      config.shards = shards;
      MonitorFleet fleet(pipeline_, config);
      std::ostringstream verdicts;
      IngestServer server(&fleet, &verdicts, {});
      ASSERT_TRUE(server.Start().ok());
      IngestClientOptions options;
      options.port = server.port();
      IngestClient client(options);
      ASSERT_TRUE(client.Connect().ok());
      StreamRun(&client, *faulty_);
      EXPECT_TRUE(server.WaitForSession().completed);
      server.Stop();
      if (reference.empty()) {
        reference = verdicts.str();
        EXPECT_EQ(reference, InProcessVerdicts(config));
      } else {
        EXPECT_EQ(verdicts.str(), reference)
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

// A served window is validated where inference starts: a text-dialect
// `nan` in one metric column of the alarming slave fails that diagnosis with
// a typed error naming the metric, rendered in place of the verdict, and the
// bytes stay identical across shard x thread configs.
TEST_F(IngestSessionTest, NonFiniteMetricFailsTheDiagnosisDeterministically) {
  constexpr int kMetric = 7;
  telemetry::RunTrace poisoned = *faulty_;
  poisoned.nodes[1].metrics[kMetric][2] =
      std::numeric_limits<double>::quiet_NaN();
  ASSERT_NE(net::FormatSampleLine(SampleAt(poisoned, 1, 0, 2)).find(" nan"),
            std::string::npos);

  std::string reference;
  for (const int shards : {1, 2}) {
    for (const int threads : {1, 4}) {
      FleetConfig config;
      config.threads = threads;
      config.shards = shards;
      MonitorFleet fleet(pipeline_, config);
      std::ostringstream verdicts;
      IngestServer server(&fleet, &verdicts, {});
      ASSERT_TRUE(server.Start().ok());
      IngestClientOptions options;
      options.port = server.port();
      options.text = true;
      IngestClient client(options);
      ASSERT_TRUE(client.Connect().ok());
      EXPECT_GE(StreamRun(&client, poisoned), 1u);
      EXPECT_TRUE(server.WaitForSession().completed);
      server.Stop();
      if (reference.empty()) {
        reference = verdicts.str();
      } else {
        EXPECT_EQ(verdicts.str(), reference)
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
  const size_t line = reference.find("10.0.0.2: ALARM tick ");
  ASSERT_NE(line, std::string::npos) << reference;
  const std::string verdict =
      reference.substr(line, reference.find('\n', line) - line);
  EXPECT_NE(verdict.find("(diagnosis failed: InvalidArgument: InferCause: "
                         "non-finite sample in " +
                         telemetry::MetricName(kMetric) + ")"),
            std::string::npos)
      << verdict;
}

TEST_F(IngestSessionTest, UnknownContextInHelloClosesConnection) {
  MonitorFleet fleet(pipeline_, {});
  IngestServer server(&fleet, nullptr, {});
  ASSERT_TRUE(server.Start().ok());

  // Untrained node: StartJob fails, ERR closes the connection.
  {
    IngestClientOptions options;
    options.port = server.port();
    IngestClient client(options);
    ASSERT_TRUE(client.Connect().ok());
    auto handles = client.Hello({{"wordcount", "10.9.9.9"}});
    ASSERT_FALSE(handles.ok());
    EXPECT_NE(handles.status().message().find("unknown context"),
              std::string::npos)
        << handles.status().ToString();
    // The server closed its side; the next round trip fails.
    EXPECT_FALSE(client.StartJob().ok());
  }
  // Unknown workload spelling, via the text dialect. The previous failed
  // session may still be releasing its slot; retry through the busy window.
  for (int attempt = 0; attempt < 100; ++attempt) {
    IngestClientOptions options;
    options.port = server.port();
    options.text = true;
    IngestClient client(options);
    ASSERT_TRUE(client.Connect().ok());
    auto handles = client.Hello({{"mapreduce9000", "10.0.0.2"}});
    ASSERT_FALSE(handles.ok());
    if (handles.status().message().find("busy") != std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    EXPECT_NE(handles.status().message().find("unknown workload"),
              std::string::npos)
        << handles.status().ToString();
    break;
  }
  server.Stop();
}

TEST_F(IngestSessionTest, DuplicateHandleInOneTickClosesConnection) {
  MonitorFleet fleet(pipeline_, {});
  IngestServer server(&fleet, nullptr, {});
  ASSERT_TRUE(server.Start().ok());

  IngestClientOptions options;
  options.port = server.port();
  IngestClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  auto handles = client.Hello(
      {{"wordcount", Context(1).node_ip}, {"wordcount", Context(2).node_ip}});
  ASSERT_TRUE(handles.ok());
  // Both samples stamp the same monitor: IngestTick rejects the whole batch
  // up front (fleet untouched) and the server answers with a strict ERR.
  auto outcome = client.Tick({SampleAt(*faulty_, 1, handles.value()[0], 0),
                              SampleAt(*faulty_, 2, handles.value()[0], 0)});
  ASSERT_FALSE(outcome.ok());
  EXPECT_FALSE(client.StartJob().ok());  // connection is gone
  server.Stop();
}

TEST_F(IngestSessionTest, SecondConcurrentSessionIsTurnedAwayBusy) {
  MonitorFleet fleet(pipeline_, {});
  IngestServer server(&fleet, nullptr, {});
  ASSERT_TRUE(server.Start().ok());

  IngestClientOptions options;
  options.port = server.port();
  IngestClient first(options);
  ASSERT_TRUE(first.Connect().ok());
  auto handles = first.Hello({{"wordcount", Context(1).node_ip}});
  ASSERT_TRUE(handles.ok());

  IngestClient second(options);
  ASSERT_TRUE(second.Connect().ok());
  auto rejected = second.Hello({{"wordcount", Context(2).node_ip}});
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("busy"), std::string::npos)
      << rejected.status().ToString();

  // The first session is unaffected.
  ASSERT_TRUE(first.StartJob().ok());
  auto outcome = first.Tick({SampleAt(*faulty_, 1, handles.value()[0], 0)});
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(first.Bye().ok());
  server.Stop();
}

// Once a session completes with BYE the report is being assembled; a late
// producer must be refused, not allowed to append extra run blocks.
TEST_F(IngestSessionTest, SessionAfterCleanCompletionIsRefused) {
  MonitorFleet fleet(pipeline_, {});
  std::ostringstream verdicts;
  IngestServer server(&fleet, &verdicts, {});
  ASSERT_TRUE(server.Start().ok());

  IngestClientOptions options;
  options.port = server.port();
  {
    IngestClient client(options);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Hello({{"wordcount", Context(1).node_ip}}).ok());
    ASSERT_TRUE(client.Bye().ok());
  }
  // The completed session is latched even before WaitForSession runs. The
  // BYE-ACK races ahead of the latch (it is sent before OnBye completes),
  // so retry through the brief busy window.
  for (int attempt = 0; attempt < 100; ++attempt) {
    IngestClient late(options);
    ASSERT_TRUE(late.Connect().ok());
    auto refused = late.Hello({{"wordcount", Context(2).node_ip}});
    ASSERT_FALSE(refused.ok());
    if (refused.status().message().find("busy") != std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    EXPECT_NE(refused.status().message().find("done"), std::string::npos)
        << refused.status().ToString();
    break;
  }
  EXPECT_TRUE(server.WaitForSession().completed);
  server.Stop();
}

// A session that renders verdicts (ENDJOB) but dies without BYE must leave
// no partial run blocks in the sink; the next clean session's report is
// exactly its own blocks.
TEST_F(IngestSessionTest, DirtySessionLeavesNoPartialVerdicts) {
  FleetConfig config;
  config.threads = 1;
  config.shards = 1;
  MonitorFleet fleet(pipeline_, config);
  std::ostringstream verdicts;
  IngestServer server(&fleet, &verdicts, {});
  ASSERT_TRUE(server.Start().ok());

  IngestClientOptions options;
  options.port = server.port();
  {
    IngestClient dirty(options);
    ASSERT_TRUE(dirty.Connect().ok());
    auto handles = dirty.Hello({{"wordcount", Context(1).node_ip}});
    ASSERT_TRUE(handles.ok());
    ASSERT_TRUE(dirty.StartJob().ok());
    auto outcome =
        dirty.Tick({SampleAt(*faulty_, 1, handles.value()[0], 0)});
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(dirty.EndJob().ok());  // renders "== run 0 ==" somewhere
    dirty.Close();                     // ...but never says BYE
  }
  EXPECT_EQ(verdicts.str(), "");  // the dirty block never reached the sink

  // A clean session afterwards owns the report outright.
  bool streamed = false;
  for (int attempt = 0; attempt < 100 && !streamed; ++attempt) {
    IngestClient clean(options);
    ASSERT_TRUE(clean.Connect().ok());
    auto handles = clean.Hello({{"wordcount", Context(2).node_ip}});
    if (!handles.ok()) {
      clean.Close();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    ASSERT_TRUE(clean.StartJob().ok());
    auto outcome =
        clean.Tick({SampleAt(*faulty_, 2, handles.value()[0], 0)});
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(clean.EndJob().ok());
    ASSERT_TRUE(clean.Bye().ok());
    streamed = true;
  }
  ASSERT_TRUE(streamed);
  const net::SessionStats stats = server.WaitForSession();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.runs, 1);
  server.Stop();
  // Exactly one run block: the clean session's own run 0.
  EXPECT_EQ(verdicts.str().find("== run 0 =="), 0u) << verdicts.str();
  EXPECT_EQ(verdicts.str().find("== run 0 ==", 1), std::string::npos);
}

// The text dialect shares the binary dialect's resource bound: TICK counts
// above max_frame_bytes / 220 are refused instead of buffering unbounded
// sample vectors for an unauthenticated peer.
TEST_F(IngestSessionTest, TextTickCountSharesBinaryFrameBound) {
  MonitorFleet fleet(pipeline_, {});
  IngestServerOptions server_options;
  server_options.max_frame_bytes = 10 * net::kBinarySampleBytes;
  IngestServer server(&fleet, nullptr, server_options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  net::LineReader reader(fd);
  std::string line;
  ASSERT_TRUE(net::WriteAll(fd, "HELLO v1 " + ContextToken(1) + "\n"));
  ASSERT_TRUE(reader.ReadLine(&line));
  ASSERT_EQ(line, "OK 0");
  ASSERT_TRUE(net::WriteAll(fd, std::string("TICK 11\n")));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line.find("ERR bad TICK count"), 0u) << line;
  ::close(fd);
  server.Stop();
}

// Socket backpressure is the fleet's deterministic ring-reject policy made
// visible on the wire: with one shard and a 1-deep ring, a 2-sample tick
// always admits the first sample in batch order and rejects the second -
// and the text dialect labels the reply BACKPRESSURE explicitly.
TEST_F(IngestSessionTest, BackpressureIsExplicitAndDeterministic) {
  FleetConfig config;
  config.threads = 1;
  config.shards = 1;
  config.ring_capacity = 1;
  MonitorFleet fleet(pipeline_, config);
  IngestServer server(&fleet, nullptr, {});
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  net::LineReader reader(fd);
  std::string line;

  ASSERT_TRUE(net::WriteAll(
      fd, "HELLO v1 " + ContextToken(1) + " " + ContextToken(2) + "\n"));
  ASSERT_TRUE(reader.ReadLine(&line));
  ASSERT_EQ(line, "OK 0 1") << line;
  ASSERT_TRUE(net::WriteAll(fd, std::string("JOB\n")));
  ASSERT_TRUE(reader.ReadLine(&line));
  ASSERT_EQ(line, "OK");

  for (int repeat = 0; repeat < 3; ++repeat) {
    std::string tick = "TICK 2\n";
    tick += net::FormatSampleLine(
                SampleAt(*faulty_, 1, 0, static_cast<size_t>(repeat))) +
            "\n";
    tick += net::FormatSampleLine(
                SampleAt(*faulty_, 2, 1, static_cast<size_t>(repeat))) +
            "\n";
    ASSERT_TRUE(net::WriteAll(fd, tick));
    ASSERT_TRUE(reader.ReadLine(&line));
    // Deterministic: same counts every tick, batch order decides admission.
    EXPECT_EQ(line, "BACKPRESSURE 1 1");
  }
  ASSERT_TRUE(net::WriteAll(fd, std::string("BYE\n")));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "OK");
  ::close(fd);
  server.Stop();
}

TEST_F(IngestSessionTest, OversizedTickFrameIsRejectedBeforeAllocation) {
  MonitorFleet fleet(pipeline_, {});
  IngestServerOptions server_options;
  server_options.max_frame_bytes = 1024;  // fits a handful of samples only
  IngestServer server(&fleet, nullptr, server_options);
  ASSERT_TRUE(server.Start().ok());

  IngestClientOptions options;
  options.port = server.port();
  IngestClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  auto handles = client.Hello({{"wordcount", Context(1).node_ip}});
  ASSERT_TRUE(handles.ok());
  // 100 samples = ~22 KB of payload, far over the 1 KiB server cap.
  std::vector<TickSample> oversized(100);
  auto outcome = client.Tick(oversized);
  ASSERT_FALSE(outcome.ok());
  server.Stop();
}

TEST_F(IngestSessionTest, UnexpectedFrameTypeGetsStrictErr) {
  MonitorFleet fleet(pipeline_, {});
  IngestServer server(&fleet, nullptr, {});
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::WriteAll(fd, net::kBinaryMagic, 4));
  ASSERT_TRUE(
      net::WriteAll(fd, net::EncodeFrame(static_cast<FrameType>(0x42), "")));
  auto reply = net::ReadFrame(fd, net::kDefaultMaxFramePayload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, FrameType::kErr);
  EXPECT_NE(reply.value().payload.find("unexpected frame"),
            std::string::npos);
  // And the connection is closed: the next read sees EOF.
  char byte;
  EXPECT_FALSE(net::ReadFull(fd, &byte, 1));
  ::close(fd);
  server.Stop();
}

TEST_F(IngestSessionTest, TickBeforeHelloIsAProtocolError) {
  MonitorFleet fleet(pipeline_, {});
  IngestServer server(&fleet, nullptr, {});
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::WriteAll(fd, net::kBinaryMagic, 4));
  ASSERT_TRUE(net::WriteAll(fd, net::EncodeTick({TickSample{}})));
  auto reply = net::ReadFrame(fd, net::kDefaultMaxFramePayload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, FrameType::kErr);
  ::close(fd);
  server.Stop();
}

// A producer that dies mid-frame must not wedge the server or complete the
// session; the next producer gets a clean slate.
TEST_F(IngestSessionTest, MidFrameDisconnectReleasesTheSession) {
  FleetConfig config;
  config.threads = 1;
  MonitorFleet fleet(pipeline_, config);
  std::ostringstream verdicts;
  IngestServer server(&fleet, &verdicts, {});
  ASSERT_TRUE(server.Start().ok());

  {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(net::WriteAll(fd, net::kBinaryMagic, 4));
    ASSERT_TRUE(net::WriteAll(fd, net::EncodeHello(
        {{"wordcount", Context(1).node_ip}}).value()));
    auto ack = net::ReadFrame(fd, net::kDefaultMaxFramePayload);
    ASSERT_TRUE(ack.ok());
    // Announce a TICK frame, deliver half of it, vanish.
    const std::string tick = net::EncodeTick({TickSample{}});
    ASSERT_TRUE(net::WriteAll(fd, tick.substr(0, tick.size() / 2)));
    ::close(fd);
  }

  // A full clean session still works afterwards.
  IngestClientOptions options;
  options.port = server.port();
  IngestClient client(options);
  // The dead session's worker may still be unwinding; retry briefly.
  bool streamed = false;
  for (int attempt = 0; attempt < 50 && !streamed; ++attempt) {
    ASSERT_TRUE(client.Connect().ok());
    auto handles = client.Hello({{"wordcount", Context(1).node_ip}});
    if (handles.ok()) {
      EXPECT_TRUE(client.Bye().ok());
      streamed = true;
    } else {
      client.Close();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(streamed);
  const net::SessionStats stats = server.WaitForSession();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.runs, 0);  // the clean session streamed no jobs
  server.Stop();
}

TEST_F(IngestSessionTest, StopUnblocksWaitForSession) {
  MonitorFleet fleet(pipeline_, {});
  IngestServer server(&fleet, nullptr, {});
  ASSERT_TRUE(server.Start().ok());
  net::SessionStats stats;
  std::thread waiter([&] { stats = server.WaitForSession(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();
  waiter.join();
  EXPECT_FALSE(stats.completed);
}

// xmlstore-fuzz-style resilience: hundreds of connections spraying random
// bytes (sometimes behind a valid magic) must never crash or wedge the
// listener, and a clean session must still complete afterwards.
TEST_F(IngestSessionTest, RandomBytesFuzzNeverCrashesOrWedges) {
  FleetConfig config;
  config.threads = 1;
  MonitorFleet fleet(pipeline_, config);
  IngestServerOptions server_options;
  server_options.io_timeout_seconds = 2;  // a wedged read can't stall Stop
  IngestServer server(&fleet, nullptr, server_options);
  ASSERT_TRUE(server.Start().ok());

  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> length_dist(1, 512);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int i = 0; i < 200; ++i) {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0) << "listener died after " << i << " fuzz connections";
    std::string blob;
    if (i % 3 == 0) blob.assign(net::kBinaryMagic, 4);  // binary dialect
    const int len = length_dist(rng);
    for (int b = 0; b < len; ++b) {
      blob.push_back(static_cast<char>(byte_dist(rng)));
    }
    net::WriteAll(fd, blob);  // peer may already have closed: ignore result
    ::close(fd);
  }

  // The listener survived; a clean session still round trips. Fuzz workers
  // may still be draining, so retry into the busy window.
  IngestClientOptions options;
  options.port = server.port();
  bool clean = false;
  for (int attempt = 0; attempt < 100 && !clean; ++attempt) {
    IngestClient client(options);
    ASSERT_TRUE(client.Connect().ok());
    auto handles = client.Hello({{"wordcount", Context(1).node_ip}});
    if (handles.ok()) {
      EXPECT_TRUE(client.Bye().ok());
      clean = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(clean);
  EXPECT_TRUE(server.WaitForSession().completed);
  server.Stop();
}

}  // namespace
}  // namespace invarnetx
