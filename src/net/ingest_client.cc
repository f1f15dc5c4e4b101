#include "net/ingest_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "campaign/runner.h"
#include "workload/spec.h"

namespace invarnetx::net {
namespace {

Result<long> ParseLong(const std::string& token) {
  char* end = nullptr;
  const long value = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad number '" + token + "' in reply");
  }
  return value;
}

Status ErrFromReply(const std::vector<std::string>& tokens,
                    const std::string& line) {
  if (!tokens.empty() && tokens[0] == "ERR") {
    return Status::InvalidArgument("server: " + line.substr(4));
  }
  return Status::InvalidArgument("unexpected reply '" + line + "'");
}

}  // namespace

IngestClient::IngestClient(IngestClientOptions options)
    : options_(std::move(options)) {}

IngestClient::~IngestClient() { Close(); }

Status IngestClient::Connect() {
  if (connected()) return Status::FailedPrecondition("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (options_.io_timeout_seconds > 0) {
    timeval timeout{};
    timeout.tv_sec = options_.io_timeout_seconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.address.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad address: " + options_.address);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    Close();
    return Status::IoError("connect " + options_.address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  // Request/response round trips: without NODELAY every small frame waits
  // out Nagle against the peer's delayed ACK.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.text) {
    reader_ = std::make_unique<LineReader>(fd_);
  } else if (!WriteAll(fd_, kBinaryMagic, sizeof(kBinaryMagic))) {
    Close();
    return Status::IoError("failed to send protocol magic");
  }
  return Status::Ok();
}

void IngestClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.reset();
}

Status IngestClient::WriteCommand(const std::string& bytes) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  if (!WriteAll(fd_, bytes)) {
    Close();
    return Status::IoError("connection lost writing command");
  }
  return Status::Ok();
}

Result<std::string> IngestClient::ReadReplyLine() {
  std::string line;
  if (!reader_->ReadLine(&line)) {
    Close();
    return Status::IoError("connection lost reading reply");
  }
  return line;
}

Result<std::vector<serve::MonitorHandle>> IngestClient::Hello(
    const std::vector<HelloEntry>& entries) {
  if (options_.text) {
    std::string command = "HELLO v1";
    for (const HelloEntry& entry : entries) {
      command += " " + entry.workload + "@" + entry.node_ip;
    }
    INVARNETX_RETURN_IF_ERROR(WriteCommand(command + "\n"));
    Result<std::string> line = ReadReplyLine();
    if (!line.ok()) return line.status();
    const std::vector<std::string> tokens = Tokenize(line.value());
    if (tokens.empty() || tokens[0] != "OK") {
      return ErrFromReply(tokens, line.value());
    }
    if (tokens.size() != entries.size() + 1) {
      return Status::InvalidArgument("HELLO reply handle count mismatch");
    }
    std::vector<serve::MonitorHandle> handles;
    for (size_t i = 1; i < tokens.size(); ++i) {
      Result<long> handle = ParseLong(tokens[i]);
      if (!handle.ok()) return handle.status();
      handles.push_back(static_cast<serve::MonitorHandle>(handle.value()));
    }
    return handles;
  }
  Result<std::string> hello = EncodeHello(entries);
  if (!hello.ok()) return hello.status();
  INVARNETX_RETURN_IF_ERROR(WriteCommand(hello.value()));
  Result<Frame> reply = ReadFrame(fd_, options_.max_frame_bytes);
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply.value().type == FrameType::kErr) {
    return Status::InvalidArgument("server: " + reply.value().payload);
  }
  if (reply.value().type != FrameType::kHelloAck) {
    return Status::InvalidArgument("unexpected reply to HELLO");
  }
  Result<std::vector<serve::MonitorHandle>> handles =
      DecodeHelloAck(reply.value().payload);
  if (!handles.ok()) return handles.status();
  if (handles.value().size() != entries.size()) {
    return Status::InvalidArgument("HELLO-ACK handle count mismatch");
  }
  return handles;
}

Status IngestClient::StartJob() {
  if (options_.text) {
    INVARNETX_RETURN_IF_ERROR(WriteCommand("JOB\n"));
    Result<std::string> line = ReadReplyLine();
    if (!line.ok()) return line.status();
    if (line.value() != "OK") {
      return ErrFromReply(Tokenize(line.value()), line.value());
    }
    return Status::Ok();
  }
  INVARNETX_RETURN_IF_ERROR(WriteCommand(EncodeEmpty(FrameType::kJob)));
  Result<Frame> reply = ReadFrame(fd_, options_.max_frame_bytes);
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply.value().type == FrameType::kErr) {
    return Status::InvalidArgument("server: " + reply.value().payload);
  }
  if (reply.value().type != FrameType::kJobAck) {
    return Status::InvalidArgument("unexpected reply to JOB");
  }
  return Status::Ok();
}

Result<TickOutcome> IngestClient::Tick(
    const std::vector<serve::TickSample>& samples) {
  if (options_.text) {
    std::string command = "TICK " + std::to_string(samples.size()) + "\n";
    for (const serve::TickSample& sample : samples) {
      command += FormatSampleLine(sample) + "\n";
    }
    INVARNETX_RETURN_IF_ERROR(WriteCommand(command));
    Result<std::string> line = ReadReplyLine();
    if (!line.ok()) return line.status();
    const std::vector<std::string> tokens = Tokenize(line.value());
    if (tokens.size() != 3 ||
        (tokens[0] != "OK" && tokens[0] != "BACKPRESSURE")) {
      return ErrFromReply(tokens, line.value());
    }
    Result<long> accepted = ParseLong(tokens[1]);
    Result<long> rejected = ParseLong(tokens[2]);
    if (!accepted.ok()) return accepted.status();
    if (!rejected.ok()) return rejected.status();
    return TickOutcome{static_cast<uint32_t>(accepted.value()),
                       static_cast<uint32_t>(rejected.value())};
  }
  EncodeTickInto(samples, &tick_frame_);
  INVARNETX_RETURN_IF_ERROR(WriteCommand(tick_frame_));
  Result<Frame> reply = ReadFrame(fd_, options_.max_frame_bytes);
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply.value().type == FrameType::kErr) {
    return Status::InvalidArgument("server: " + reply.value().payload);
  }
  if (reply.value().type != FrameType::kTickAck &&
      reply.value().type != FrameType::kBackpressure) {
    return Status::InvalidArgument("unexpected reply to TICK");
  }
  return DecodeTickReply(reply.value().payload);
}

Result<uint32_t> IngestClient::EndJob() {
  if (options_.text) {
    INVARNETX_RETURN_IF_ERROR(WriteCommand("ENDJOB\n"));
    Result<std::string> line = ReadReplyLine();
    if (!line.ok()) return line.status();
    const std::vector<std::string> tokens = Tokenize(line.value());
    if (tokens.size() != 2 || tokens[0] != "OK") {
      return ErrFromReply(tokens, line.value());
    }
    Result<long> alarms = ParseLong(tokens[1]);
    if (!alarms.ok()) return alarms.status();
    return static_cast<uint32_t>(alarms.value());
  }
  INVARNETX_RETURN_IF_ERROR(WriteCommand(EncodeEmpty(FrameType::kEndJob)));
  Result<Frame> reply = ReadFrame(fd_, options_.max_frame_bytes);
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply.value().type == FrameType::kErr) {
    return Status::InvalidArgument("server: " + reply.value().payload);
  }
  if (reply.value().type != FrameType::kEndJobAck) {
    return Status::InvalidArgument("unexpected reply to ENDJOB");
  }
  return DecodeEndJobAck(reply.value().payload);
}

Status IngestClient::Bye() {
  if (options_.text) {
    INVARNETX_RETURN_IF_ERROR(WriteCommand("BYE\n"));
    Result<std::string> line = ReadReplyLine();
    if (!line.ok()) return line.status();
    if (line.value() != "OK") {
      return ErrFromReply(Tokenize(line.value()), line.value());
    }
    Close();
    return Status::Ok();
  }
  INVARNETX_RETURN_IF_ERROR(WriteCommand(EncodeEmpty(FrameType::kBye)));
  Result<Frame> reply = ReadFrame(fd_, options_.max_frame_bytes);
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply.value().type != FrameType::kByeAck) {
    return Status::InvalidArgument("unexpected reply to BYE");
  }
  Close();
  return Status::Ok();
}

Result<StreamStats> StreamScenario(IngestClient* client,
                                   const campaign::Scenario& scenario,
                                   int max_runs) {
  // HELLO in slave node order - the canonical arming order of
  // serve::PrepareScenarioFleet, so per-tick sample order (and with it
  // backpressure admission order) matches a local replay exactly.
  std::vector<HelloEntry> entries;
  std::vector<size_t> node_indices;
  const std::string workload_name = workload::WorkloadName(scenario.workload);
  for (int node = 1; node <= scenario.slaves; ++node) {
    entries.push_back(
        HelloEntry{workload_name, "10.0.0." + std::to_string(node + 1)});
    node_indices.push_back(static_cast<size_t>(node));
  }
  Result<std::vector<serve::MonitorHandle>> handles = client->Hello(entries);
  if (!handles.ok()) return handles.status();

  int runs = scenario.test_runs;
  if (max_runs > 0) runs = std::min(runs, max_runs);

  StreamStats stats;
  std::vector<serve::TickSample> samples;
  for (int rep = 0; rep < runs; ++rep) {
    Result<telemetry::RunTrace> trace =
        campaign::SimulateScenarioTestRun(scenario, rep);
    if (!trace.ok()) return trace.status();
    INVARNETX_RETURN_IF_ERROR(client->StartJob());
    const size_t ticks = trace.value().nodes[1].cpi.size();
    for (size_t t = 0; t < ticks; ++t) {
      samples.clear();
      for (size_t i = 0; i < node_indices.size(); ++i) {
        const telemetry::NodeTrace& node = trace.value().nodes[node_indices[i]];
        serve::TickSample sample;
        sample.monitor = handles.value()[i];
        sample.cpi = node.cpi[t];
        for (int metric = 0; metric < telemetry::kNumMetrics; ++metric) {
          sample.metrics[static_cast<size_t>(metric)] =
              node.metrics[static_cast<size_t>(metric)][t];
        }
        samples.push_back(std::move(sample));
      }
      Result<TickOutcome> outcome = client->Tick(samples);
      if (!outcome.ok()) return outcome.status();
      ++stats.ticks;
      stats.accepted += outcome.value().accepted;
      stats.rejected += outcome.value().rejected;
    }
    Result<uint32_t> alarms = client->EndJob();
    if (!alarms.ok()) return alarms.status();
    stats.alarms += alarms.value();
    ++stats.runs;
  }
  INVARNETX_RETURN_IF_ERROR(client->Bye());
  return stats;
}

}  // namespace invarnetx::net
