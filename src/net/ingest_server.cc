#include "net/ingest_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "workload/spec.h"

namespace invarnetx::net {
namespace {

// Parses "workload@ip" (OperationContext::ToString spelling).
Result<HelloEntry> ParseContextToken(const std::string& token) {
  const size_t at = token.find('@');
  if (at == std::string::npos || at == 0 || at + 1 == token.size()) {
    return Status::InvalidArgument("bad context '" + token +
                                   "' (want workload@ip)");
  }
  return HelloEntry{token.substr(0, at), token.substr(at + 1)};
}

bool IsDisconnect(const Status& status) {
  return status.code() == StatusCode::kIoError;
}

}  // namespace

IngestServer::IngestServer(serve::MonitorFleet* fleet, std::ostream* verdicts,
                           IngestServerOptions options)
    : fleet_(fleet), verdicts_(verdicts), options_(std::move(options)) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Shared();
  sessions_counter_ = &registry.GetCounter("net.ingest_sessions");
  ticks_counter_ = &registry.GetCounter("net.ingest_ticks");
  samples_counter_ = &registry.GetCounter("net.ingest_samples");
  rejects_counter_ = &registry.GetCounter("net.ingest_rejects");
  errors_counter_ = &registry.GetCounter("net.ingest_errors");
}

IngestServer::~IngestServer() { Stop(); }

Status IngestServer::Start() {
  SocketServer::Options server_options;
  server_options.bind_address = options_.bind_address;
  server_options.port = options_.port;
  server_options.num_workers = options_.num_workers;
  server_options.io_timeout_seconds = options_.io_timeout_seconds;
  server_.SetOptions(std::move(server_options));
  server_.SetHandler([this](int fd) { ServeConnection(fd); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
    done_ = false;
    session_done_ = false;
  }
  return server_.Start();
}

void IngestServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Unblock every connection stuck in recv - including one still in the
    // dialect sniff - so SocketServer::Stop can join its workers without
    // waiting out the io timeout.
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  done_cv_.notify_all();
  server_.Stop();
}

SessionStats IngestServer::WaitForSession() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return done_ || stopping_; });
  if (!done_) return SessionStats{};  // stopped with no clean session
  done_ = false;
  return std::exchange(completed_, SessionStats{});
}

void IngestServer::ServeConnection(int fd) {
  // Register before the first read: Stop() shuts down every registered fd,
  // so even a producer that connects and then sends nothing cannot stall
  // shutdown until its io timeout expires.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    live_fds_.push_back(fd);
  }
  RunSession(fd);
  std::lock_guard<std::mutex> lock(mu_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                  live_fds_.end());
}

void IngestServer::RunSession(int fd) {
  // Dialect sniff: binary producers lead with the 4-byte magic; every text
  // session leads with "HELLO ...", so 4 bytes are always forthcoming.
  char magic[4];
  if (!ReadFull(fd, magic, sizeof(magic))) return;
  const bool binary = std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0;
  LineReader reader(fd);
  if (!binary) reader.Preload(std::string(magic, sizeof(magic)));

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    if (busy_ || session_done_) {
      // One producer at a time: the fleet has a single-ingestion-thread
      // contract, and interleaving two sessions' jobs would make verdicts
      // depend on connection timing. Once a session has completed cleanly
      // the server is done until the next Start(): a late producer must
      // not append run blocks to a report already being assembled.
      const std::string err =
          busy_ ? "busy: another ingest session is active"
                : "done: an ingest session already completed";
      errors_counter_->Increment();
      if (binary) {
        WriteAll(fd, EncodeErr(err));
      } else {
        WriteAll(fd, "ERR " + err + "\n");
      }
      return;
    }
    busy_ = true;
  }
  sessions_counter_->Increment();

  Session session;
  if (binary) {
    RunBinarySession(fd, &session);
  } else {
    RunTextSession(fd, &reader, &session);
  }

  std::lock_guard<std::mutex> lock(mu_);
  busy_ = false;
}

void IngestServer::RunBinarySession(int fd, Session* session) {
  const auto fail = [&](const std::string& message) {
    errors_counter_->Increment();
    WriteAll(fd, EncodeErr(message));
  };
  Frame& frame = session->frame;
  for (;;) {
    const Status read = ReadFrameInto(fd, options_.max_frame_bytes, &frame);
    if (!read.ok()) {
      // Mid-frame disconnect gets no reply (nobody is listening); a parse
      // error (oversized / zero-length frame) gets a strict ERR first.
      if (!IsDisconnect(read)) fail(read.message());
      return;
    }
    switch (frame.type) {
      case FrameType::kHello: {
        Result<std::vector<HelloEntry>> entries = DecodeHello(frame.payload);
        if (!entries.ok()) return fail(entries.status().message());
        Result<std::vector<serve::MonitorHandle>> handles =
            OnHello(session, entries.value());
        if (!handles.ok()) return fail(handles.status().message());
        if (!WriteAll(fd, EncodeHelloAck(handles.value()))) return;
        break;
      }
      case FrameType::kJob: {
        if (!frame.payload.empty()) {
          return fail("JOB frame carries no payload");
        }
        const Status status = OnJob(session);
        if (!status.ok()) return fail(status.message());
        if (!WriteAll(fd, EncodeEmpty(FrameType::kJobAck))) return;
        break;
      }
      case FrameType::kTick: {
        const Status decoded = DecodeTickInto(frame.payload, &session->batch);
        if (!decoded.ok()) return fail(decoded.message());
        Result<TickOutcome> outcome = OnTick(session, session->batch);
        if (!outcome.ok()) return fail(outcome.status().message());
        if (!WriteAll(fd, EncodeTickReply(outcome.value()))) return;
        break;
      }
      case FrameType::kEndJob: {
        if (!frame.payload.empty()) {
          return fail("ENDJOB frame carries no payload");
        }
        Result<uint32_t> alarms = OnEndJob(session);
        if (!alarms.ok()) return fail(alarms.status().message());
        if (!WriteAll(fd, EncodeEndJobAck(alarms.value()))) return;
        break;
      }
      case FrameType::kBye: {
        // Ack before completing: OnBye wakes WaitForSession, whose caller
        // may Stop() the server - and Stop shuts the socket down, which
        // would race the ack out from under a well-behaved client.
        WriteAll(fd, EncodeEmpty(FrameType::kByeAck));
        OnBye(session);
        return;
      }
      default:
        return fail("unexpected frame type " +
                    std::to_string(static_cast<int>(frame.type)));
    }
  }
}

void IngestServer::RunTextSession(int fd, LineReader* reader,
                                  Session* session) {
  const auto fail = [&](const std::string& message) {
    errors_counter_->Increment();
    WriteAll(fd, "ERR " + message + "\n");
  };
  std::string line;
  while (reader->ReadLine(&line)) {
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& command = tokens[0];
    if (command == "HELLO") {
      if (tokens.size() < 3 || tokens[1] != "v1") {
        return fail("want: HELLO v1 workload@ip ...");
      }
      std::vector<HelloEntry> entries;
      for (size_t i = 2; i < tokens.size(); ++i) {
        Result<HelloEntry> entry = ParseContextToken(tokens[i]);
        if (!entry.ok()) return fail(entry.status().message());
        entries.push_back(std::move(entry.value()));
      }
      Result<std::vector<serve::MonitorHandle>> handles =
          OnHello(session, entries);
      if (!handles.ok()) return fail(handles.status().message());
      std::string reply = "OK";
      for (const serve::MonitorHandle handle : handles.value()) {
        reply += " " + std::to_string(handle);
      }
      if (!WriteAll(fd, reply + "\n")) return;
    } else if (command == "JOB") {
      if (tokens.size() != 1) return fail("JOB takes no arguments");
      const Status status = OnJob(session);
      if (!status.ok()) return fail(status.message());
      if (!WriteAll(fd, std::string("OK\n"))) return;
    } else if (command == "TICK") {
      if (tokens.size() != 2) return fail("want: TICK <count>");
      char* end = nullptr;
      const long count = std::strtol(tokens[1].c_str(), &end, 10);
      // Both dialects share one resource bound: the text dialect buffers at
      // most as many samples as the largest legal binary TICK frame carries
      // (max_frame_bytes), instead of a separate, larger cap.
      const long max_samples =
          static_cast<long>(options_.max_frame_bytes / kBinarySampleBytes);
      if (*end != '\0' || count < 0 || count > max_samples) {
        return fail("bad TICK count '" + tokens[1] + "' (max " +
                    std::to_string(max_samples) + ")");
      }
      session->batch.resize(static_cast<size_t>(count));
      for (serve::TickSample& sample : session->batch) {
        std::string sample_line;
        if (!reader->ReadLine(&sample_line)) return;  // disconnect mid-tick
        Result<serve::TickSample> parsed = ParseSampleLine(sample_line);
        if (!parsed.ok()) return fail(parsed.status().message());
        sample = std::move(parsed.value());
      }
      Result<TickOutcome> outcome = OnTick(session, session->batch);
      if (!outcome.ok()) return fail(outcome.status().message());
      const std::string verb =
          outcome.value().rejected == 0 ? "OK" : "BACKPRESSURE";
      if (!WriteAll(fd, verb + " " + std::to_string(outcome.value().accepted) +
                            " " + std::to_string(outcome.value().rejected) +
                            "\n")) {
        return;
      }
    } else if (command == "ENDJOB") {
      if (tokens.size() != 1) return fail("ENDJOB takes no arguments");
      Result<uint32_t> alarms = OnEndJob(session);
      if (!alarms.ok()) return fail(alarms.status().message());
      if (!WriteAll(fd, "OK " + std::to_string(alarms.value()) + "\n")) return;
    } else if (command == "BYE") {
      // Ack first; see the binary BYE handler for the Stop() race.
      WriteAll(fd, std::string("OK\n"));
      OnBye(session);
      return;
    } else {
      return fail("unknown command '" + command + "'");
    }
  }
}

Result<std::vector<serve::MonitorHandle>> IngestServer::OnHello(
    Session* session, const std::vector<HelloEntry>& entries) {
  if (!session->armed.empty()) {
    return Status::FailedPrecondition("duplicate HELLO");
  }
  std::vector<serve::MonitorHandle> handles;
  handles.reserve(entries.size());
  std::vector<serve::ArmedContext> armed;
  armed.reserve(entries.size());
  for (const HelloEntry& entry : entries) {
    Result<workload::WorkloadType> type =
        workload::WorkloadFromName(entry.workload);
    if (!type.ok()) {
      return Status::InvalidArgument("unknown workload '" + entry.workload +
                                     "' in HELLO");
    }
    const core::OperationContext context{type.value(), entry.node_ip};
    Result<serve::MonitorHandle> handle = fleet_->StartJob(context);
    if (!handle.ok()) {
      return Status::InvalidArgument("unknown context '" + context.ToString() +
                                     "' in HELLO: " +
                                     handle.status().message());
    }
    handles.push_back(handle.value());
    armed.push_back(serve::ArmedContext{context, handle.value()});
  }
  session->armed = std::move(armed);
  return handles;
}

Status IngestServer::OnJob(Session* session) {
  if (session->armed.empty()) {
    return Status::FailedPrecondition("JOB before HELLO");
  }
  for (serve::ArmedContext& armed : session->armed) {
    Result<serve::MonitorHandle> handle = fleet_->StartJob(armed.context);
    if (!handle.ok()) return handle.status();
    armed.handle = handle.value();  // stable, but never trust stale state
  }
  return Status::Ok();
}

Result<TickOutcome> IngestServer::OnTick(
    Session* session, const std::vector<serve::TickSample>& samples) {
  if (session->armed.empty()) {
    return Status::FailedPrecondition("TICK before HELLO");
  }
  // IngestTick validates strictly up front (handle range, active job,
  // duplicate monitor in one tick) and leaves the fleet untouched on error,
  // so a strict ERR-and-close here never corrupts monitor state.
  Result<serve::TickSummary> summary = fleet_->IngestTick(samples);
  if (!summary.ok()) return summary.status();
  ticks_counter_->Increment();
  samples_counter_->Increment(static_cast<uint64_t>(summary.value().samples));
  if (summary.value().rejected > 0) {
    rejects_counter_->Increment(
        static_cast<uint64_t>(summary.value().rejected));
  }
  return TickOutcome{static_cast<uint32_t>(summary.value().samples),
                     static_cast<uint32_t>(summary.value().rejected)};
}

Result<uint32_t> IngestServer::OnEndJob(Session* session) {
  if (session->armed.empty()) {
    return Status::FailedPrecondition("ENDJOB before HELLO");
  }
  fleet_->WaitForDiagnoses();
  const std::vector<serve::FleetDiagnosis> diagnoses = fleet_->TakeDiagnoses();
  if (verdicts_ != nullptr) {
    // Render into the session's private buffer; OnBye flushes it to the
    // shared sink, so a session that dies before BYE leaves no partial
    // run blocks in the report.
    session->verdicts << "== run " << session->run << " ==\n";
    serve::RenderVerdicts(*fleet_, session->armed, diagnoses,
                          &session->verdicts);
  }
  ++session->run;
  const uint32_t alarms = static_cast<uint32_t>(fleet_->alarms_active());
  session->total_alarms += alarms;
  return alarms;
}

void IngestServer::OnBye(Session* session) {
  std::lock_guard<std::mutex> lock(mu_);
  if (verdicts_ != nullptr) *verdicts_ << session->verdicts.str();
  completed_ = SessionStats{session->run, session->total_alarms, true};
  done_ = true;
  session_done_ = true;
  done_cv_.notify_all();
}

}  // namespace invarnetx::net
