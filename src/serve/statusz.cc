#include "serve/statusz.h"

#include <algorithm>
#include <cstdio>

#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace invarnetx::serve {
namespace {

// Journal tail shown on /statusz; the full ring is available via
// `invarnetx events`.
constexpr size_t kStatuszJournalTail = 64;

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

}  // namespace

void FleetStatusBoard::Register(const MonitorFleet* fleet) {
  std::lock_guard<std::mutex> lock(mu_);
  fleets_.push_back(fleet);
}

void FleetStatusBoard::Deregister(const MonitorFleet* fleet) {
  std::lock_guard<std::mutex> lock(mu_);
  fleets_.erase(std::remove(fleets_.begin(), fleets_.end(), fleet),
                fleets_.end());
}

size_t FleetStatusBoard::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fleets_.size();
}

std::vector<FleetStatus> FleetStatusBoard::Snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FleetStatus> out;
  out.reserve(fleets_.size());
  for (const MonitorFleet* fleet : fleets_) {
    out.push_back(fleet->Snapshot());
  }
  return out;
}

FleetStatusBoard& FleetStatusBoard::Shared() {
  // Leaked like the registries it mirrors: fleets may deregister from
  // threads that outlive static teardown ordering.
  static FleetStatusBoard* board = new FleetStatusBoard();
  return *board;
}

std::string RenderFleetStatus(const FleetStatus& status) {
  std::string out;
  out += "  monitors_total=" + std::to_string(status.monitors_total);
  out += " alarms_active=" + std::to_string(status.alarms_active);
  out += " pending_diagnoses=" + std::to_string(status.pending_diagnoses);
  out += "\n  ticks_ingested=" + std::to_string(status.ticks_ingested);
  out += " samples_ingested=" + std::to_string(status.samples_ingested);
  out += " samples_rejected=" + std::to_string(status.samples_rejected);
  out += " alarms_raised=" + std::to_string(status.alarms_raised);
  out += " diagnoses_completed=" + std::to_string(status.diagnoses_completed);
  out += " window_overflows=" + std::to_string(status.window_overflows);
  out += "\n  storm_active=";
  out += status.storm_active ? "true" : "false";
  out += " slow_ticks_active=";
  out += status.slow_ticks_active ? "true" : "false";
  out += " ingest_p99_s=" + FormatSeconds(status.ingest_p99_seconds);
  out += " budget_s=" + FormatSeconds(status.slow_tick_budget_seconds);
  out += "\n";
  for (const ShardStatus& shard : status.shards) {
    out += "  shard " + std::to_string(shard.shard);
    out += " monitors=" + std::to_string(shard.monitors);
    out += " ring_capacity=" + std::to_string(shard.ring_capacity);
    out += " samples=" + std::to_string(shard.samples);
    out += " ring_rejects=" + std::to_string(shard.ring_rejects);
    out += "\n";
  }
  out += "  monitors shown " + std::to_string(status.monitors.size()) +
         " of " + std::to_string(status.monitors_total);
  if (status.monitors_listed_truncated) out += " (interesting rows only)";
  out += "\n";
  for (const MonitorStatus& monitor : status.monitors) {
    out += "  monitor " + monitor.context;
    out += " shard=" + std::to_string(monitor.shard);
    out += " alarm=";
    out += monitor.alarm_active ? "true" : "false";
    out += " epoch=" + std::to_string(monitor.epoch);
    out += " first_alarm_tick=" + std::to_string(monitor.first_alarm_tick);
    out += " ticks=" + std::to_string(monitor.ticks_observed);
    out += " window=" + std::to_string(monitor.window_ticks);
    out += "\n";
  }
  return out;
}

void InstallObsEndpoints(obs::HttpServer* server) {
  server->Handle("/metrics", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    // The OpenMetrics media type; Prometheus accepts it, and plain-text
    // readers see text anyway.
    response.content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    response.body = obs::MetricsRegistry::Shared().RenderOpenMetrics();
    return response;
  });

  server->Handle("/healthz", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    const std::vector<FleetStatus> fleets =
        FleetStatusBoard::Shared().Snapshots();
    size_t storms = 0;
    for (const FleetStatus& fleet : fleets) {
      if (fleet.storm_active) ++storms;
    }
    response.body = "ok\n";
    response.body += "uptime_s=" + FormatSeconds(
        static_cast<double>(obs::UptimeMicros()) / 1e6) + "\n";
    response.body += "fleets=" + std::to_string(fleets.size()) + "\n";
    response.body += "storms_active=" + std::to_string(storms) + "\n";
    return response;
  });

  server->Handle("/statusz", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    std::string& body = response.body;
    body = "invarnetx statusz\n";
    body += "uptime_s=" + FormatSeconds(
        static_cast<double>(obs::UptimeMicros()) / 1e6) + "\n";

    const std::vector<FleetStatus> fleets =
        FleetStatusBoard::Shared().Snapshots();
    body += "\n== fleets (" + std::to_string(fleets.size()) + ") ==\n";
    for (size_t i = 0; i < fleets.size(); ++i) {
      body += "fleet " + std::to_string(i) + "\n";
      body += RenderFleetStatus(fleets[i]);
    }

    body += "\n== metrics ==\n";
    body += obs::MetricsRegistry::Shared().RenderText();

    obs::EventJournal& journal = obs::EventJournal::Shared();
    body += "\n== events (last " + std::to_string(kStatuszJournalTail) +
            " of " + std::to_string(journal.next_seq()) + " recorded, " +
            std::to_string(journal.evicted()) + " evicted) ==\n";
    body += obs::RenderEventsText(journal.Snapshot(kStatuszJournalTail));
    return response;
  });

  server->Handle("/tracez", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = obs::SlowSpanSampler::Shared().RenderText();
    return response;
  });
}

}  // namespace invarnetx::serve
