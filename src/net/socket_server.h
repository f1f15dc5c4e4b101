#ifndef INVARNETX_NET_SOCKET_SERVER_H_
#define INVARNETX_NET_SOCKET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

// Reusable blocking-socket server plumbing: one listener, one acceptor
// thread, a small worker pool draining accepted connections into a
// per-connection handler. Extracted from obs::HttpServer so the
// observability endpoint and the ingest front end share one hardened
// accept path instead of two divergent copies. Like invarnetx_obs, this
// layer is deliberately dependency-free (header-only parts of
// common/status.h plus Threads) so anything above it - including
// invarnetx_obs itself - can link it without a cycle; diagnostics are
// routed through an optional callback rather than the obs logger.
namespace invarnetx::net {

class SocketServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 picks an ephemeral port; see port() after Start
    int num_workers = 2;
    int backlog = 16;
    // SO_RCVTIMEO / SO_SNDTIMEO applied to every accepted connection so a
    // stuck peer cannot pin a worker forever. <= 0 disables the timeouts.
    int io_timeout_seconds = 5;
    // Diagnostics hook (accept failures, backoffs). Called from the
    // acceptor thread; must be thread-safe. Null = silent.
    std::function<void(const std::string& event, const std::string& detail)>
        on_error;
    // Test-only fault injection: when set, called instead of ::accept(2).
    // Lets tests hand the acceptor transient errnos (ECONNABORTED, EMFILE)
    // without exhausting real kernel resources.
    std::function<int(int listen_fd)> accept_override;
  };

  // Serves one accepted connection; the server closes the fd afterwards.
  // Runs on a worker thread and must be thread-safe against other workers.
  using ConnectionHandler = std::function<void(int fd)>;

  SocketServer() = default;
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Sets the per-connection handler. Must be called before Start().
  void SetHandler(ConnectionHandler handler);

  // Replaces the options. Must be called before Start().
  void SetOptions(Options options);

  // Binds, listens, and spawns the acceptor + workers. Fails (with the
  // errno text) if the port is taken, the address does not parse, or no
  // handler is set.
  Status Start();

  // Idempotent; joins all threads and closes every socket.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  // The bound port (resolves ephemeral requests); 0 before Start.
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void WorkerLoop();
  // Sleeps briefly after a transient accept failure, waking early when the
  // server is stopping. Returns false when shutdown began mid-wait.
  bool BackoffOrStop();

  Options options_;
  ConnectionHandler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  // Written by Stop() while the acceptor reads it after a failed accept();
  // atomic so that unsynchronized hand-off is well-defined.
  std::atomic<bool> running_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker
  bool shutting_down_ = false;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace invarnetx::net

#endif  // INVARNETX_NET_SOCKET_SERVER_H_
