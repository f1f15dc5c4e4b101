#ifndef INVARNETX_NET_INGEST_CLIENT_H_
#define INVARNETX_NET_INGEST_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/scenario.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/wire.h"
#include "serve/fleet.h"

namespace invarnetx::net {

struct IngestClientOptions {
  std::string address = "127.0.0.1";
  int port = 0;
  // Speak the newline text dialect instead of length-prefixed binary
  // frames. Binary is the production path; text exists for `nc` driving
  // and protocol debugging, and the client keeps both honest in tests.
  bool text = false;
  int io_timeout_seconds = 30;
  size_t max_frame_bytes = kDefaultMaxFramePayload;
};

// Producer side of the ingest protocol (DESIGN.md section 14): connects,
// negotiates handles with HELLO, then drives JOB / TICK / ENDJOB / BYE.
// Every call is a blocking request/response round trip; any ERR reply or
// transport failure is returned as a Status and poisons the connection
// (the server has already closed it).
class IngestClient {
 public:
  explicit IngestClient(IngestClientOptions options);
  ~IngestClient();

  IngestClient(const IngestClient&) = delete;
  IngestClient& operator=(const IngestClient&) = delete;

  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Negotiates one monitor per entry; the returned handles are parallel to
  // `entries` and must be stamped into every Tick sample.
  Result<std::vector<serve::MonitorHandle>> Hello(
      const std::vector<HelloEntry>& entries);
  // (Re-)arms every negotiated monitor: one job starts.
  Status StartJob();
  // Streams one batched tick; the outcome carries the fleet's
  // accepted/rejected counts (rejected > 0 = explicit backpressure).
  Result<TickOutcome> Tick(const std::vector<serve::TickSample>& samples);
  // Ends the job; returns the fleet's latched alarm count for it.
  Result<uint32_t> EndJob();
  // Clean end of session.
  Status Bye();

 private:
  Status WriteCommand(const std::string& bytes);
  Result<std::string> ReadReplyLine();

  IngestClientOptions options_;
  int fd_ = -1;
  std::unique_ptr<LineReader> reader_;  // text dialect only
  // Binary TICK frames are encoded over this buffer, so a steady stream of
  // same-size batches sends without allocating. It holds the largest TICK
  // frame sent and is freed with the client.
  std::string tick_frame_;
};

// What streaming a scenario through a client did.
struct StreamStats {
  int runs = 0;
  uint64_t ticks = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;  // backpressure drops reported by the server
  uint64_t alarms = 0;    // summed ENDJOB alarm counts
};

// Streams every test run of a scenario through a connected client exactly
// the way ReplayScenario ingests it locally: HELLO in slave node order,
// then per run JOB, one TICK per cluster tick (samples in node order),
// ENDJOB; finally BYE. Byte-identical verdicts on the server side follow
// from this ordering plus the bit-exact sample codec. `max_runs` caps the
// test runs (0 = all).
Result<StreamStats> StreamScenario(IngestClient* client,
                                   const campaign::Scenario& scenario,
                                   int max_runs);

}  // namespace invarnetx::net

#endif  // INVARNETX_NET_INGEST_CLIENT_H_
