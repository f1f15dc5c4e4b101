// Tests for the embedded observability HTTP server: raw-socket round trips
// against an ephemeral loopback port, the standard endpoint set installed by
// InstallObsEndpoints, protocol edges (404/405/400, HEAD), and concurrent
// scrapes racing a live fleet's ingest path (the TSan job runs this suite).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "obs/http.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/statusz.h"

namespace invarnetx {
namespace {

using obs::HttpRequest;
using obs::HttpResponse;
using obs::HttpServer;

// Sends one raw request over a fresh loopback connection and returns the
// full response (status line + headers + body). Empty string on failure.
std::string RawRequest(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return RawRequest(port, "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

// The body after the blank line separating it from the headers.
std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(HttpServerTest, EphemeralPortRoundTripAndIdempotentStop) {
  HttpServer server;  // default options: 127.0.0.1, port 0
  server.Handle("/ping", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "pong " + request.query;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string response = Get(server.port(), "/ping?q=1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length:"), std::string::npos);
  EXPECT_EQ(Body(response), "pong q=1");

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(HttpServerTest, ProtocolEdges) {
  HttpServer server;
  server.Handle("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());

  // Unknown path: 404 listing the registered endpoints.
  const std::string missing = Get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(missing.find("/ok"), std::string::npos);
  // Non-GET/HEAD: 405.
  const std::string post = RawRequest(
      server.port(),
      "POST /ok HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);
  // Garbage request line: 400.
  const std::string malformed = RawRequest(server.port(), "garbage\r\n\r\n");
  EXPECT_NE(malformed.find("400"), std::string::npos);
  // HEAD gets the headers (with the real length) but no body.
  const std::string head = RawRequest(
      server.port(), "HEAD /ok HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(head.rfind("HTTP/1.1 200 OK", 0), 0u) << head;
  EXPECT_TRUE(Body(head).empty());

  server.Stop();
}

TEST(HttpServerTest, ObsEndpointsServeAllFourPages) {
  HttpServer server;
  serve::InstallObsEndpoints(&server);
  ASSERT_TRUE(server.Start().ok());

  // /metrics is a valid OpenMetrics exposition with the right content type.
  const std::string metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos);
  size_t samples = 0;
  const Status valid = obs::ValidateOpenMetrics(Body(metrics), &samples);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_GT(samples, 0u);

  // /healthz answers ok with uptime.
  const std::string healthz = Get(server.port(), "/healthz");
  EXPECT_EQ(healthz.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(Body(healthz).find("ok"), std::string::npos);
  EXPECT_NE(Body(healthz).find("uptime_s"), std::string::npos);

  // /statusz carries the metrics table and the journal tail.
  obs::EventJournal::Shared().Record(obs::EventKind::kLifecycle,
                                     "statusz journal probe");
  const std::string statusz = Body(Get(server.port(), "/statusz"));
  EXPECT_NE(statusz.find("metrics"), std::string::npos);
  EXPECT_NE(statusz.find("statusz journal probe"), std::string::npos);

  // /tracez renders the slow-span table.
  const std::string tracez = Body(Get(server.port(), "/tracez"));
  EXPECT_NE(tracez.find("tracez"), std::string::npos);

  // Scrapes are themselves counted, per status code.
  const std::string again = Body(Get(server.port(), "/metrics"));
  EXPECT_NE(again.find("obs_http_requests_total{code=\"200\"}"),
            std::string::npos);

  server.Stop();
}

// Scrape threads hammer every endpoint while the ingestion thread streams a
// faulty run into a registered fleet, then the fleet dies while the server
// stays up - the exact races (registry, status board, status cache, fleet
// teardown vs. scrape) the locks are there to prevent. TSan runs this.
TEST(HttpServerTest, ConcurrentScrapesDuringFleetIngest) {
  core::InvarNetX pipeline;
  const auto context = core::OperationContext{
      workload::WorkloadType::kWordCount, "10.0.0.2"};
  auto normal = core::SimulateNormalRuns(workload::WorkloadType::kWordCount,
                                         6, 42);
  ASSERT_TRUE(normal.ok());
  ASSERT_TRUE(pipeline.TrainContext(context, normal.value(), 1).ok());
  auto faulty = core::SimulateFaultRun(workload::WorkloadType::kWordCount,
                                       faults::FaultType::kCpuHog, 888);
  ASSERT_TRUE(faulty.ok());

  HttpServer server;
  serve::InstallObsEndpoints(&server);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 2; ++i) {
    scrapers.emplace_back([&] {
      while (!done.load()) {
        for (const char* path :
             {"/metrics", "/statusz", "/healthz", "/tracez"}) {
          if (!Get(port, path).empty()) scrapes.fetch_add(1);
        }
      }
    });
  }

  {
    serve::MonitorFleet fleet(&pipeline);
    Result<serve::MonitorHandle> handle = fleet.StartJob(context);
    ASSERT_TRUE(handle.ok());
    const telemetry::NodeTrace& series = faulty.value().nodes[1];
    for (size_t t = 0; t < series.cpi.size(); ++t) {
      serve::TickSample sample;
      sample.monitor = handle.value();
      sample.cpi = series.cpi[t];
      for (int m = 0; m < telemetry::kNumMetrics; ++m) {
        sample.metrics[static_cast<size_t>(m)] =
            series.metrics[static_cast<size_t>(m)][t];
      }
      ASSERT_TRUE(fleet.IngestTick({sample}).ok());
    }
    fleet.WaitForDiagnoses();
    // While the fleet is alive the board exposes it to /statusz scrapes.
    EXPECT_GE(serve::FleetStatusBoard::Shared().size(), 1u);
  }
  // Fleet destroyed with the server still serving: scrapes must keep
  // working against the now-empty board.
  const std::string after = Body(Get(port, "/statusz"));
  EXPECT_FALSE(after.empty());

  done.store(true);
  for (std::thread& scraper : scrapers) scraper.join();
  EXPECT_GT(scrapes.load(), 0);
  server.Stop();
}

// Regression: a request head that hits the 8 KiB cap without ever sending
// the "\r\n\r\n" terminator used to be parsed as if it were complete. It
// must be answered with 400 and a closed connection instead.
TEST(HttpServerTest, OversizeUnterminatedHeadGets400) {
  HttpServer server;
  server.Handle("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());

  // > 8 KiB of header bytes, never terminated.
  std::string request = "GET /ok HTTP/1.1\r\nHost: x\r\nX-Pad: ";
  request.append(9000, 'a');
  const std::string response = RawRequest(server.port(), request);
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
  EXPECT_NE(Body(response).find("exceeds"), std::string::npos) << response;

  // The server is still healthy for well-formed requests afterwards.
  const std::string ok = Get(server.port(), "/ok");
  EXPECT_EQ(ok.rfind("HTTP/1.1 200 OK", 0), 0u) << ok;

  server.Stop();
}

// Regression: any accept() errno other than EINTR used to kill the
// acceptor thread permanently - after one transient ECONNABORTED or EMFILE
// the server would silently stop accepting forever. Injected transient
// failures must be survived.
TEST(HttpServerTest, AcceptorSurvivesTransientAcceptFailures) {
  std::atomic<int> failures{3};
  HttpServer::Options options;
  options.accept_override = [&failures](int listen_fd) {
    if (failures.fetch_sub(1) > 0) {
      errno = ECONNABORTED;  // transient: aborted handshake
      return -1;
    }
    return static_cast<int>(::accept(listen_fd, nullptr, nullptr));
  };
  HttpServer server(options);
  server.Handle("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());

  // Wait out the injected failures (10 ms backoff each), then the acceptor
  // must still be alive and serving.
  while (failures.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string response = Get(server.port(), "/ok");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK", 0), 0u) << response;

  server.Stop();
}

// Regression: Handle() used to mutate the handler map with no lock while
// worker threads looked paths up, an unsynchronized data race. Registering
// handlers from several threads during live scrapes must be clean (the
// TSan job runs this suite).
TEST(HttpServerTest, ConcurrentHandlerRegistrationDuringScrapes) {
  HttpServer server;
  server.Handle("/seed", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      Get(port, "/seed");
      Get(port, "/nope");  // 404 path walks the whole map for its listing
    }
  });
  std::vector<std::thread> registrars;
  for (int t = 0; t < 2; ++t) {
    registrars.emplace_back([&server, t] {
      for (int i = 0; i < 20; ++i) {
        const std::string path =
            "/dyn" + std::to_string(t) + "_" + std::to_string(i);
        server.Handle(path, [path](const HttpRequest&) {
          HttpResponse response;
          response.body = path;
          return response;
        });
      }
    });
  }
  for (std::thread& registrar : registrars) registrar.join();
  done.store(true);
  scraper.join();

  // Every late-registered handler is reachable.
  const std::string late = Get(port, "/dyn1_19");
  EXPECT_EQ(late.rfind("HTTP/1.1 200 OK", 0), 0u) << late;
  EXPECT_EQ(Body(late), "/dyn1_19");

  server.Stop();
}

}  // namespace
}  // namespace invarnetx
