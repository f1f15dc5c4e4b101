#include "net/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace invarnetx::net {

SocketServer::~SocketServer() { Stop(); }

void SocketServer::SetHandler(ConnectionHandler handler) {
  handler_ = std::move(handler);
}

void SocketServer::SetOptions(Options options) {
  options_ = std::move(options);
}

Status SocketServer::Start() {
  if (running()) return Status::InvalidArgument("socket server already running");
  if (!handler_) {
    return Status::InvalidArgument("socket server has no connection handler");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen: " + err);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("getsockname: " + err);
  }
  port_ = ntohs(bound.sin_port);

  shutting_down_ = false;
  running_.store(true, std::memory_order_relaxed);
  const int workers = options_.num_workers < 1 ? 1 : options_.num_workers;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void SocketServer::Stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  // shutdown() unblocks the acceptor's accept(); close alone is not
  // guaranteed to on all platforms.
  ::shutdown(listen_fd_, SHUT_RDWR);
  cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

bool SocketServer::BackoffOrStop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(10),
               [this] { return shutting_down_; });
  return !shutting_down_;
}

void SocketServer::AcceptLoop() {
  for (;;) {
    const int fd = options_.accept_override
                       ? options_.accept_override(listen_fd_)
                       : ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Closed or shut down listener: exit quietly when stopping.
      if (!running()) return;
      // Transient failures (aborted handshake, fd exhaustion, out of
      // memory, ...) must never kill the acceptor: a monitoring server
      // that silently stops accepting is worse than one that sheds a
      // connection. Report, back off briefly, and keep accepting; only
      // shutdown ends the loop.
      if (options_.on_error) {
        options_.on_error("accept failed", std::strerror(errno));
      }
      if (!BackoffOrStop()) return;
      continue;
    }
    if (options_.io_timeout_seconds > 0) {
      // A stuck client must not pin a worker forever.
      timeval timeout{};
      timeout.tv_sec = options_.io_timeout_seconds;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      ::close(fd);
      return;
    }
    pending_.push_back(fd);
    cv_.notify_one();
  }
}

void SocketServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !pending_.empty(); });
      // On shutdown, never serve queued connections - each could cost a
      // full io timeout. Stop() closes whatever is still pending.
      if (shutting_down_) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    handler_(fd);
    ::close(fd);
  }
}

}  // namespace invarnetx::net
