// The HTTP face of the query-serving plane: route dispatch, the
// byte-precise 4xx surface of /v1/marginal and /v1/model, and —
// centrally — that the JSON cells served over the wire are the *exact*
// IEEE doubles the library-level MarginalCache computes (the %.17g
// rendering round-trips, so string equality against a locally formatted
// expectation is a bitwise check). Also the /metrics surface: the
// Prometheus payload, concurrent scrapes, and THE observability
// acceptance test — a live IngestServer pipeline whose scrape reconciles
// exactly with the client-side reply totals and the collector's
// absorbed-report count.

#include "net/query_server.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/collector.h"
#include "net/frame_client.h"
#include "net/http_common.h"
#include "net/ingest_server.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"
#include "query/marginal_cache.h"

namespace ldpm {
namespace net {
namespace {

using test::HttpGet;
using test::HttpRequest;
using test::IngestRows;
using test::MakeConfig;
using test::ResponseBody;
using test::SeriesValue;
using test::SkewedRows;

std::string Format17g(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::CollectorOptions options;
    options.engine_defaults.num_shards = 2;
    auto collector = engine::Collector::Create(options);
    ASSERT_TRUE(collector.ok());
    collector_ = *std::move(collector);
    auto handle = collector_->Register("c", ProtocolKind::kInpHT,
                                       MakeConfig(4, 2));
    ASSERT_TRUE(handle.ok());
    handle_ = *std::move(handle);
    ASSERT_TRUE(IngestRows(handle_, ProtocolKind::kInpHT,
                           SkewedRows(4, 4000, 17), 17)
                    .ok());
    ASSERT_TRUE(handle_.Flush().ok());
    auto server = QueryServer::Start(collector_.get(), QueryServerOptions());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = *std::move(server);
  }

  std::string Get(const std::string& path) {
    return HttpGet(server_->port(), path);
  }

  std::unique_ptr<engine::Collector> collector_;
  engine::CollectionHandle handle_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(QueryServerTest, HealthzAndUnknownPath) {
  EXPECT_EQ(ResponseBody(Get("/healthz")), "ok\n");
  const std::string response = Get("/nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(ResponseBody(response),
            "unknown path; try /v1/marginal, /v1/model, /v1/collections, "
            "/metrics, or /healthz\n");
}

TEST(QueryServer, RejectsNullCollector) {
  EXPECT_FALSE(QueryServer::Start(nullptr).ok());
}

TEST_F(QueryServerTest, MetricsServesPrometheusText) {
  collector_->metrics()->GetCounter("ldpm_test_total", "A test counter")
      ->Increment(42);
  collector_->metrics()->GetGauge("ldpm_test_depth")->Set(7);
  for (const char* path : {"/metrics", "/stats", "/stats?pretty=1"}) {
    SCOPED_TRACE(path);
    const std::string response = Get(path);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find(
                  "Content-Type: text/plain; version=0.0.4; charset=utf-8"),
              std::string::npos);
    EXPECT_NE(response.find("ldpm_test_total 42\n"), std::string::npos);
    EXPECT_NE(response.find("ldpm_test_depth 7\n"), std::string::npos);
  }
  // The endpoint's own series: requests so far (the three scrapes), the
  // scraping connection itself, and nothing shed.
  const std::string body = ResponseBody(Get("/metrics"));
  EXPECT_EQ(SeriesValue(body, "ldpm_query_http_requests_total"), 3.0);
  EXPECT_EQ(SeriesValue(body, "ldpm_query_http_connections"), 1.0);
  EXPECT_EQ(SeriesValue(body, "ldpm_query_http_connections_shed_total"), 0.0);
}

TEST_F(QueryServerTest, NonGetIs405AndMalformedIs400) {
  EXPECT_NE(HttpRequest(server_->port(), "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(HttpRequest(server_->port(), "garbage\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(QueryServerTest, ConcurrentScrapesAllAnswered) {
  collector_->metrics()->GetCounter("ldpm_test_total")->Increment();
  constexpr int kScrapers = 8;
  std::vector<std::thread> scrapers;
  std::atomic<int> ok{0};
  for (int i = 0; i < kScrapers; ++i) {
    scrapers.emplace_back([&] {
      if (Get("/metrics").find("ldpm_test_total 1\n") != std::string::npos) {
        ++ok;
      }
    });
  }
  for (auto& scraper : scrapers) scraper.join();
  EXPECT_EQ(ok.load(), kScrapers);
}

TEST_F(QueryServerTest, StopIsIdempotentAndPortCloses) {
  const uint16_t port = server_->port();
  EXPECT_NE(Get("/healthz").find("200"), std::string::npos);
  server_->Stop();
  server_->Stop();
  auto probe = Socket::Connect(test::kHttpLoopback, port);
  if (probe.ok()) {
    // A racing connect may still land in the dead backlog; it must at
    // least never be answered.
    uint8_t byte;
    auto n = probe->ReadSome(&byte, 1, std::chrono::seconds(1));
    EXPECT_TRUE(!n.ok() || *n == 0);
  }
}

TEST_F(QueryServerTest, MarginalCellsAreBitwiseTheLibraryAnswer) {
  // The ground truth the server must serve: the merged state's coefficient
  // export rebuilt by Lemma 3.7 at the same watermark (the
  // reproducibility contract pins this bitwise).
  auto handle = collector_->Handle("c");
  ASSERT_TRUE(handle.ok());
  auto coefficients = handle->Coefficients(2);
  ASSERT_TRUE(coefficients.ok()) << coefficients.status().ToString();
  auto expected = coefficients->ReconstructMarginal(0b0101);
  ASSERT_TRUE(expected.ok());

  const std::string response = Get("/v1/marginal?collection=c&attrs=0,2");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  const std::string body = ResponseBody(response);
  EXPECT_NE(body.find("\"collection\":\"c\""), std::string::npos);
  EXPECT_NE(body.find("\"protocol\":\"InpHT\""), std::string::npos);
  EXPECT_NE(body.find("\"d\":4"), std::string::npos);
  EXPECT_NE(body.find("\"stale\":false"), std::string::npos);
  EXPECT_NE(body.find("\"attrs\":[0,2]"), std::string::npos);
  EXPECT_NE(body.find("\"beta\":5"), std::string::npos);
  EXPECT_NE(body.find("\"order\":2"), std::string::npos);
  EXPECT_NE(body.find("\"epoch\":1"), std::string::npos);
  std::string cells = "\"cells\":[";
  for (uint64_t i = 0; i < expected->size(); ++i) {
    if (i != 0) cells += ",";
    cells += Format17g(expected->at_compact(i));
  }
  cells += "]";
  EXPECT_NE(body.find(cells), std::string::npos)
      << "served cells are not bitwise the library answer: " << body;
}

TEST_F(QueryServerTest, WatermarkAndEpochAdvanceOverHttp) {
  const std::string first = ResponseBody(Get("/v1/marginal?collection=c&attrs=0"));
  EXPECT_NE(first.find("\"epoch\":1"), std::string::npos);
  // Same watermark: the cache hit keeps the epoch.
  const std::string second =
      ResponseBody(Get("/v1/marginal?collection=c&attrs=0,1"));
  EXPECT_NE(second.find("\"epoch\":1"), std::string::npos);
  // New ingest moves the watermark; the next request sees epoch 2.
  ASSERT_TRUE(
      IngestRows(handle_, ProtocolKind::kInpHT, SkewedRows(4, 500, 18), 18)
          .ok());
  ASSERT_TRUE(handle_.Flush().ok());
  const std::string third =
      ResponseBody(Get("/v1/marginal?collection=c&attrs=0"));
  EXPECT_NE(third.find("\"epoch\":2"), std::string::npos);
}

TEST_F(QueryServerTest, MarginalBadRequestSurfaceIsBytePrecise) {
  struct Case {
    const char* path;
    const char* status;
    const char* body;
  };
  const Case cases[] = {
      {"/v1/marginal", "HTTP/1.1 400",
       "missing required parameter: collection\n"},
      {"/v1/marginal?collection=", "HTTP/1.1 400",
       "missing required parameter: collection\n"},
      {"/v1/marginal?collection=ghost&attrs=0", "HTTP/1.1 404",
       "unknown collection: ghost\n"},
      {"/v1/marginal?collection=c", "HTTP/1.1 400",
       "missing required parameter: attrs\n"},
      {"/v1/marginal?collection=c&attrs=", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids\n"},
      {"/v1/marginal?collection=c&attrs=0,x", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids, got \"x\"\n"},
      {"/v1/marginal?collection=c&attrs=0,,2", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids, got \"\"\n"},
      {"/v1/marginal?collection=c&attrs=-1", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids, got \"-1\"\n"},
      {"/v1/marginal?collection=c&attrs=9", "HTTP/1.1 400",
       "attrs: attribute 9 out of range [0, 4)\n"},
      {"/v1/marginal?collection=c&attrs=99999999999", "HTTP/1.1 400",
       "attrs: attribute 99999999999 out of range [0, 4)\n"},
      {"/v1/marginal?collection=c&attrs=1,1", "HTTP/1.1 400",
       "attrs: duplicate attribute 1\n"},
      {"/v1/marginal?collection=c&attrs=0,1,2", "HTTP/1.1 400",
       "attrs: order 3 exceeds cached maximum 2\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    const std::string response = Get(c.path);
    EXPECT_NE(response.find(c.status), std::string::npos) << response;
    EXPECT_EQ(ResponseBody(response), c.body);
  }
}

TEST_F(QueryServerTest, ModelEndpointServesTreeAndCpts) {
  const std::string response = Get("/v1/model?collection=c");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string body = ResponseBody(response);
  EXPECT_NE(body.find("\"collection\":\"c\""), std::string::npos);
  EXPECT_NE(body.find("\"d\":4"), std::string::npos);
  EXPECT_NE(body.find("\"total_mutual_information\":"), std::string::npos);
  // d-1 edges, d CPT entries, exactly one root (parent -1 with "p1").
  size_t edges = 0;
  for (size_t pos = 0; (pos = body.find("\"mutual_information\":", pos)) !=
                       std::string::npos;
       ++pos) {
    ++edges;
  }
  EXPECT_EQ(edges, 3u);
  size_t cpts = 0;
  for (size_t pos = 0;
       (pos = body.find("\"attribute\":", pos)) != std::string::npos; ++pos) {
    ++cpts;
  }
  EXPECT_EQ(cpts, 4u);
  EXPECT_NE(body.find("\"parent\":-1,\"p1\":"), std::string::npos);
  size_t conditionals = 0;
  for (size_t pos = 0; (pos = body.find("\"p1_given_parent\":[", pos)) !=
                       std::string::npos;
       ++pos) {
    ++conditionals;
  }
  EXPECT_EQ(conditionals, 3u);
}

TEST_F(QueryServerTest, ModelBadRequestSurface) {
  EXPECT_EQ(ResponseBody(Get("/v1/model")),
            "missing required parameter: collection\n");
  const std::string response = Get("/v1/model?collection=ghost");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "unknown collection: ghost\n");
}

TEST_F(QueryServerTest, CollectionsEndpointListsRegistrations) {
  ASSERT_TRUE(
      collector_->Register("d2", ProtocolKind::kMargPS, MakeConfig(3, 1))
          .ok());
  const std::string body = ResponseBody(Get("/v1/collections"));
  EXPECT_NE(body.find("{\"id\":\"c\",\"protocol\":\"InpHT\",\"d\":4,\"k\":2}"),
            std::string::npos);
  EXPECT_NE(
      body.find("{\"id\":\"d2\",\"protocol\":\"MargPS\",\"d\":3,\"k\":1}"),
      std::string::npos);
}

TEST_F(QueryServerTest, NonBinaryCategoricalCollectionIs400WithReadPathHint) {
  ProtocolConfig config = MakeConfig(2, 1);
  config.cardinalities = {3, 2};
  ASSERT_TRUE(
      collector_->Register("cat", ProtocolKind::kInpES, config).ok());
  const std::string response = Get("/v1/marginal?collection=cat&attrs=0");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(ResponseBody(response).find("non-binary categorical domain"),
            std::string::npos);
}

// Every request asks the registry what a collection id names now. An id
// registered anew is served from its new engine, not from the cache built
// over the old one, and an unregistered id answers 404.
TEST_F(QueryServerTest, ServesTheEngineRegisteredUnderTheIdNow) {
  const auto register_x = [&](size_t reports) {
    auto handle =
        collector_->Register("x", ProtocolKind::kInpHT, MakeConfig(4, 2));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE(IngestRows(*handle, ProtocolKind::kInpHT,
                           SkewedRows(4, reports, 19), 19)
                    .ok());
    ASSERT_TRUE(handle->Flush().ok());
  };
  const auto reports_served = [&]() -> uint64_t {
    auto cache = server_->CacheFor("x");
    EXPECT_TRUE(cache.ok()) << cache.status().ToString();
    if (!cache.ok()) return 0;
    auto snapshot = (*cache)->Get();
    EXPECT_TRUE(snapshot.ok());
    return snapshot.ok() ? (*snapshot)->reports_absorbed() : 0;
  };

  register_x(5000);
  EXPECT_NE(Get("/v1/marginal?collection=x&attrs=0").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_EQ(reports_served(), 5000u);

  ASSERT_TRUE(collector_->Unregister("x").ok());
  register_x(200);
  EXPECT_EQ(reports_served(), 200u);
  // Over HTTP too: the cells are the new engine's.
  auto handle = collector_->Handle("x");
  ASSERT_TRUE(handle.ok());
  auto coefficients = handle->Coefficients(2);
  ASSERT_TRUE(coefficients.ok());
  auto expected = coefficients->ReconstructMarginal(0b0011);
  ASSERT_TRUE(expected.ok());
  std::string cells = "\"cells\":[";
  for (uint64_t i = 0; i < expected->size(); ++i) {
    if (i != 0) cells += ",";
    cells += Format17g(expected->at_compact(i));
  }
  cells += "]";
  const std::string body =
      ResponseBody(Get("/v1/marginal?collection=x&attrs=0,1"));
  EXPECT_NE(body.find(cells), std::string::npos) << body;

  ASSERT_TRUE(collector_->Unregister("x").ok());
  const std::string gone = Get("/v1/marginal?collection=x&attrs=0");
  EXPECT_NE(gone.find("HTTP/1.1 404"), std::string::npos) << gone;
  EXPECT_EQ(ResponseBody(gone), "unknown collection: x\n");
  EXPECT_EQ(server_->CacheFor("x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(collector_->worker_threads_in_use(), 2);  // "c" only
}

TEST_F(QueryServerTest, HttpRequestCounterCountsAllStatuses) {
  Get("/healthz");
  Get("/nope");
  Get("/v1/marginal?collection=c&attrs=0");
  EXPECT_GE(collector_->metrics()->CounterValue("ldpm_query_http_requests_total"),
            3u);
  EXPECT_GE(server_->requests_served(), 3u);
}

// THE acceptance test: a live ingest pipeline's /metrics scrape
// reconciles with what the clients were told and what the collector
// absorbed.
TEST(QueryServer, LiveIngestPipelineMetricsReconcile) {
  constexpr int kClients = 3;
  constexpr int kFramesPerClient = 4;
  constexpr size_t kReportsPerFrame = 50;

  engine::CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  options.max_pending_batches_total = 8;
  auto collector = engine::Collector::Create(options);
  ASSERT_TRUE(collector.ok());
  const ProtocolConfig config = MakeConfig(6, 2);
  ASSERT_TRUE(
      (*collector)->Register("clicks", ProtocolKind::kMargPS, config).ok());

  auto ingest = IngestServer::Start(collector->get());
  ASSERT_TRUE(ingest.ok());
  auto query_server = QueryServer::Start(collector->get());
  ASSERT_TRUE(query_server.ok()) << query_server.status().ToString();

  // Build one frame set, stream it from kClients concurrent clients.
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());
  Rng rng(99);
  std::vector<uint8_t> stream;
  for (int i = 0; i < kFramesPerClient; ++i) {
    std::vector<Report> reports;
    for (size_t r = 0; r < kReportsPerFrame; ++r) {
      reports.push_back((*encoder)->Encode(rng() & 0x3F, rng));
    }
    auto frame = SerializeReportBatch(ProtocolKind::kMargPS, config, reports);
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(AppendCollectionFrame("clicks", *frame, stream).ok());
  }
  std::atomic<uint64_t> reply_frames{0};
  std::atomic<uint64_t> reply_bytes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto client =
          FrameClient::Connect(test::kHttpLoopback, (*ingest)->port());
      if (!client.ok() ||
          !client->SendBytes(stream.data(), stream.size()).ok()) {
        ++failures;
        return;
      }
      auto reply = client->Finish();
      if (!reply.ok() || !reply->status.ok()) {
        ++failures;
        return;
      }
      reply_frames += reply->frames_routed;
      reply_bytes += reply->bytes_routed;
    });
  }
  for (auto& client : clients) client.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE((*collector)->Flush().ok());

  const uint16_t port = (*query_server)->port();
  const std::string body = HttpGet(port, "/metrics");
  ASSERT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);

  // Net layer vs what the clients were told.
  EXPECT_EQ(SeriesValue(body, "ldpm_net_frames_routed_total"),
            static_cast<double>(reply_frames.load()));
  EXPECT_EQ(SeriesValue(body, "ldpm_net_bytes_routed_total"),
            static_cast<double>(reply_bytes.load()));
  EXPECT_EQ(SeriesValue(body, "ldpm_net_connections_accepted_total"),
            static_cast<double>(kClients));
  EXPECT_EQ(SeriesValue(body, "ldpm_net_connections_active"), 0.0);
  // Collector routing, labeled by collection.
  EXPECT_EQ(SeriesValue(body,
                        "ldpm_collector_frames_routed_total{"
                        "collection=\"clicks\"}"),
            static_cast<double>(kClients * kFramesPerClient));
  EXPECT_EQ(SeriesValue(body, "ldpm_collector_collections"), 1.0);
  // Engine layer: every report the clients sent was absorbed, and the
  // scrape agrees with the authoritative in-process count.
  const uint64_t expected_reports =
      static_cast<uint64_t>(kClients) * kFramesPerClient * kReportsPerFrame;
  auto absorbed = (*collector)->Handle("clicks").value().ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, expected_reports);
  EXPECT_EQ(SeriesValue(body,
                        "ldpm_engine_reports_absorbed_total{"
                        "collection=\"clicks\"}"),
            static_cast<double>(expected_reports));
  // Latency histograms observed real work.
  EXPECT_GT(SeriesValue(body, "ldpm_net_frame_route_latency_ns_count"), 0.0);
  EXPECT_GT(SeriesValue(
                body,
                "ldpm_engine_absorb_latency_ns_count{collection=\"clicks\"}"),
            0.0);

  ASSERT_TRUE((*ingest)->Stop().ok());
  // The graceful stop's drain duration lands in the histogram.
  const std::string after = HttpGet(port, "/metrics");
  EXPECT_GT(SeriesValue(after, "ldpm_net_drain_duration_ns_count"), 0.0);
}

}  // namespace
}  // namespace net
}  // namespace ldpm
