#ifndef INVARNETX_NET_INGEST_SERVER_H_
#define INVARNETX_NET_INGEST_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/socket_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/replay.h"

namespace invarnetx::net {

struct IngestServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  // 0: ephemeral; port() reports the bound one
  // Idle producers are cut after this; 0 disables the socket timeouts.
  int io_timeout_seconds = 30;
  // Frames whose declared payload exceeds this close the connection before
  // any allocation. A TICK of N samples needs 4 + N * 220 bytes, so huge
  // fleets raise this (bench/fleet_ingest does).
  size_t max_frame_bytes = kDefaultMaxFramePayload;
  // SocketServer accept workers. Extra workers only matter for turning
  // away concurrent producers quickly: one session runs at a time.
  int num_workers = 2;
};

// What one ingest session did, reported by WaitForSession once the session
// ends with BYE.
struct SessionStats {
  int runs = 0;               // ENDJOBs completed
  uint64_t total_alarms = 0;  // latched alarms summed across those runs
  bool completed = false;     // false: server stopped with no clean session
};

// The TCP ingest front end: external producers stream ticks into a
// MonitorFleet over a socket instead of calling IngestTick in-process.
// Speaks the two DESIGN.md section 14 dialects - length-prefixed binary
// frames after the "INVX" magic, newline text otherwise - over the same
// session state machine:
//
//   HELLO   negotiate operation contexts -> dense MonitorHandles (arms a
//           monitor per context; unknown workloads or untrained contexts
//           are an error)
//   JOB     re-arm every negotiated monitor: one job (run) starts
//   TICK    one batched ingest tick of handle-stamped samples; the reply
//           carries accepted/rejected counts, and any rejection (the
//           per-shard ring quota of DESIGN.md section 13) arrives as an
//           explicit BACKPRESSURE frame
//   ENDJOB  wait for the job's asynchronous diagnoses and render its
//           verdicts ("== run N ==" + per-node lines) to the sink, via the
//           same serve::RenderVerdicts as --replay - which is why socket-fed
//           verdicts diff byte-for-byte against a local replay
//   BYE     clean end of session; completes WaitForSession
//
// Parse errors and protocol violations are strict: one ERR reply, then the
// connection closes. A session that dies without BYE (disconnect, garbage,
// oversized frame) releases the fleet for the next connection but never
// completes WaitForSession - and contributes nothing to the verdict sink:
// each session renders into a private buffer that is flushed to the sink
// only at BYE, so partial runs never pollute the report. One session runs
// at a time; a second concurrent producer is turned away with ERR busy,
// and once any session has completed cleanly the server serves no further
// sessions until the next Start() (a late producer would otherwise append
// extra run blocks to a report already being assembled). The busy flag
// serializes every fleet call, honoring MonitorFleet's
// single-ingestion-thread contract even though successive sessions may
// land on different worker threads.
//
// Self-observability (obs::MetricsRegistry::Shared()):
//   counter net.ingest_sessions   accepted session connections
//   counter net.ingest_ticks      TICK frames applied to the fleet
//   counter net.ingest_samples    samples accepted by the fleet
//   counter net.ingest_rejects    samples rejected by ring backpressure
//   counter net.ingest_errors     sessions ended by ERR
class IngestServer {
 public:
  // `fleet` must outlive the server; `verdicts` (may be null) receives the
  // completed session's rendered per-run verdict blocks, flushed atomically
  // under the session lock when the session ends with BYE.
  IngestServer(serve::MonitorFleet* fleet, std::ostream* verdicts,
               IngestServerOptions options = {});
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  Status Start();
  void Stop();

  bool running() const { return server_.running(); }
  int port() const { return server_.port(); }

  // Blocks until a session completes cleanly (BYE) or the server stops;
  // stats.completed distinguishes the two.
  SessionStats WaitForSession();

 private:
  // One connection's session state, shared by both dialects. Verdicts
  // render into the private buffer; OnBye flushes it to the shared sink so
  // sessions that die without BYE leave no partial blocks behind. `frame`
  // (binary dialect) and `batch` are reused by every frame and TICK of the
  // session, so a steady tick stream reads and decodes without allocating;
  // both are bounded by max_frame_bytes and freed when the session ends.
  struct Session {
    std::vector<serve::ArmedContext> armed;
    int run = 0;
    uint64_t total_alarms = 0;
    std::ostringstream verdicts;
    Frame frame;
    std::vector<serve::TickSample> batch;
  };

  // Registers the connection for shutdown teardown, then runs RunSession.
  void ServeConnection(int fd);
  // Dialect sniff + busy/done gate + the session loop.
  void RunSession(int fd);
  void RunBinarySession(int fd, Session* session);
  void RunTextSession(int fd, LineReader* reader, Session* session);

  // Dialect-agnostic command handlers. Errors mean "send ERR, close".
  Result<std::vector<serve::MonitorHandle>> OnHello(
      Session* session, const std::vector<HelloEntry>& entries);
  Status OnJob(Session* session);
  Result<TickOutcome> OnTick(Session* session,
                             const std::vector<serve::TickSample>& samples);
  Result<uint32_t> OnEndJob(Session* session);
  void OnBye(Session* session);

  serve::MonitorFleet* fleet_;
  std::ostream* verdicts_;
  IngestServerOptions options_;
  SocketServer server_;

  // net.ingest_* counters, bound once at construction.
  obs::Counter* sessions_counter_ = nullptr;
  obs::Counter* ticks_counter_ = nullptr;
  obs::Counter* samples_counter_ = nullptr;
  obs::Counter* rejects_counter_ = nullptr;
  obs::Counter* errors_counter_ = nullptr;

  // Serializes sessions and every fleet call; completed_ / done_ hand the
  // finished session's stats to WaitForSession.
  std::mutex mu_;
  std::condition_variable done_cv_;
  bool busy_ = false;
  bool stopping_ = false;
  bool done_ = false;
  // Latched (until the next Start) once any session completes with BYE;
  // later connections are refused so a straggler cannot append run blocks
  // to a report the embedder is already assembling.
  bool session_done_ = false;
  // Every connection registers here before its first read; Stop() shuts
  // them all down so even a producer idle in the dialect sniff cannot
  // stall shutdown for a full io timeout.
  std::vector<int> live_fds_;
  SessionStats completed_;
};

}  // namespace invarnetx::net

#endif  // INVARNETX_NET_INGEST_SERVER_H_
