// Query-serving throughput: the epoch-cached read path vs the library
// calls it replaces.
//
// One collection (InpHT, d = 10, k = 2) is ingested once; then four ways
// of answering "give me a consistent 2-way marginal" are timed:
//
//   * query.cache_hit_rps   — query::MarginalCache::Marginal on a warm
//     snapshot: a pointer copy, a rank lookup, and a copy of 2^k doubles.
//     This is the number the QueryServer's endpoint throughput tracks,
//     and the release CI gate watches it in BENCH_ingest.json.
//   * query.direct_rps      — CollectionHandle::Query per request: the
//     pre-cache library path (flush check + merged-state estimate), with
//     the merge itself amortized by the engine's epoch cache. No
//     consistency: overlapping answers can disagree.
//   * query.consistent_rps  — what a consistent answer costs without the
//     cache: one coefficient export from the merged engine state
//     (CollectionHandle::Coefficients) + every selector up to k rebuilt
//     from it by Lemma 3.7 (ReconstructMarginal, one table at a time), per
//     request. The same tables a snapshot rebuild makes once per epoch,
//     there in one pass into one buffer, and the cache then amortizes
//     over millions of hits.
//   * query.http_rps        — end to end through net::QueryServer over
//     loopback (connection setup + parse + serve + teardown per request:
//     each request asks for `Connection: close`, so the server's keep-alive
//     is not used). Informational.
//
// query.refresh_rps is forced snapshot rebuilds per second (the
// once-per-epoch cost: export + one-pass reconstruction + publish), timed
// over at least 10 ms of rebuilds in --smoke and 100 ms otherwise, and
// CI-gated; query.refresh_ms is its inverse, informational. The bench
// asserts the acceptance ratio — a cache hit must be >= 10x the
// per-request consistent path — and exits nonzero otherwise.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/marginal.h"
#include "engine/collector.h"
#include "net/query_server.h"
#include "net/socket.h"
#include "protocols/wire.h"
#include "query/marginal_cache.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string Rate(double units, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g/s", units / seconds);
  return buf;
}

/// One-shot HTTP GET over a fresh loopback connection; returns the whole
/// response ("" on any socket error). `Connection: close` makes the server
/// close after the response, which ends the read-to-EOF.
std::string HttpGet(uint16_t port, const std::string& path) {
  auto socket = ldpm::net::Socket::Connect("127.0.0.1", port);
  if (!socket.ok()) return "";
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  if (!socket
           ->WriteAll(reinterpret_cast<const uint8_t*>(request.data()),
                      request.size())
           .ok()) {
    return "";
  }
  std::string response;
  uint8_t chunk[4096];
  for (;;) {
    auto n = socket->ReadSome(chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) break;
    response.append(reinterpret_cast<const char*>(chunk), *n);
  }
  return response;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldpm;

  const bench::BenchArgs args = bench::Parse(argc, argv);
  bench::Banner("query_serve",
                "epoch-cached marginal serving vs per-query library calls",
                args);
  bench::JsonWriter json;
  json.Add("bench", std::string("query_serve"));

  ProtocolConfig config;
  config.d = 10;
  config.k = 2;
  config.epsilon = 1.0;
  const size_t num_reports = args.smoke ? 50000 : 500000;

  engine::CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  auto collector = engine::Collector::Create(options);
  LDPM_CHECK(collector.ok());
  auto handle =
      (*collector)->Register("clicks", ProtocolKind::kInpHT, config);
  LDPM_CHECK(handle.ok());
  // Devices encode their rows; the collection ingests the wire frames.
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  LDPM_CHECK(encoder.ok());
  Rng rng(args.seed);
  const uint64_t mask = (uint64_t{1} << config.d) - 1;
  constexpr size_t kFrameReports = 8192;
  std::vector<Report> reports;
  for (size_t begin = 0; begin < num_reports; begin += kFrameReports) {
    const size_t end = std::min(begin + kFrameReports, num_reports);
    reports.clear();
    for (size_t i = begin; i < end; ++i) {
      reports.push_back((*encoder)->Encode(rng() & mask, rng));
    }
    auto frame = SerializeReportBatch(ProtocolKind::kInpHT, config, reports);
    LDPM_CHECK(frame.ok());
    LDPM_CHECK(handle->IngestWireBatch(*std::move(frame)).ok());
  }
  LDPM_CHECK(handle->Flush().ok());
  std::printf("collection: InpHT d=%d k=%d, %zu reports, 2 shards\n\n",
              config.d, config.k, num_reports);

  const std::vector<uint64_t> selectors = FullKWaySelectors(config.d, config.k);

  auto cache = query::MarginalCache::Create(collector->get(), "clicks");
  LDPM_CHECK(cache.ok());

  // Once-per-epoch cost: forced rebuilds (one coefficient export from the
  // merged engine state + every selector rebuilt from it in one pass +
  // publish), repeated until they have taken the minimum time.
  {
    const double min_seconds = args.smoke ? 0.01 : 0.1;
    size_t refreshes = 0;
    double seconds = 0.0;
    auto start = std::chrono::steady_clock::now();
    while (seconds < min_seconds) {
      for (int i = 0; i < 64; ++i) LDPM_CHECK((*cache)->Refresh().ok());
      refreshes += 64;
      seconds = Seconds(start);
    }
    const double refresh_rps = static_cast<double>(refreshes) / seconds;
    bench::Row({"snapshot refresh", Rate(static_cast<double>(refreshes),
                                         seconds)},
               22);
    json.Add("query.refresh_rps", refresh_rps);
    json.Add("query.refresh_ms", 1e3 / refresh_rps);
  }

  // Cache hits: every request is a pointer copy + lookup + tiny copy.
  double cache_hit_rps = 0.0;
  {
    const size_t requests = args.smoke ? 200000 : 2000000;
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < requests; ++i) {
      auto answer = (*cache)->Marginal(selectors[i % selectors.size()]);
      LDPM_CHECK(answer.ok());
    }
    const double seconds = Seconds(start);
    cache_hit_rps = static_cast<double>(requests) / seconds;
    bench::Row({"cache hit", Rate(static_cast<double>(requests), seconds)},
               22);
    json.Add("query.cache_hit_rps", cache_hit_rps);
  }

  // Per-request library query (no consistency, merge amortized).
  {
    const size_t requests = args.smoke ? 20000 : 100000;
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < requests; ++i) {
      auto table = handle->Query(selectors[i % selectors.size()]);
      LDPM_CHECK(table.ok());
    }
    const double seconds = Seconds(start);
    bench::Row({"direct Query", Rate(static_cast<double>(requests), seconds)},
               22);
    json.Add("query.direct_rps", static_cast<double>(requests) / seconds);
  }

  // Per-request consistent answer without the cache: the rebuild's export
  // + every selector reconstructed, every time.
  double consistent_rps = 0.0;
  {
    const size_t requests = args.smoke ? 200 : 1000;
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < requests; ++i) {
      auto coefficients = handle->Coefficients(config.k);
      LDPM_CHECK(coefficients.ok());
      for (uint64_t beta : selectors) {
        auto table = coefficients->ReconstructMarginal(beta);
        LDPM_CHECK(table.ok());
      }
    }
    const double seconds = Seconds(start);
    consistent_rps = static_cast<double>(requests) / seconds;
    bench::Row({"consistent (no cache)",
                Rate(static_cast<double>(requests), seconds)},
               22);
    json.Add("query.consistent_rps", consistent_rps);
  }

  // End to end over loopback HTTP (one connection per request).
  {
    auto server = net::QueryServer::Start(collector->get());
    LDPM_CHECK(server.ok());
    const uint16_t port = (*server)->port();
    // Warm the server-side cache so the loop measures hits, not a rebuild.
    LDPM_CHECK(
        HttpGet(port, "/v1/marginal?collection=clicks&attrs=0,1")
            .find("200 OK") != std::string::npos);
    const size_t requests = args.smoke ? 2000 : 10000;
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < requests; ++i) {
      const int a = static_cast<int>(i % (config.d - 1));
      const std::string path = "/v1/marginal?collection=clicks&attrs=" +
                               std::to_string(a) + "," +
                               std::to_string(a + 1);
      LDPM_CHECK(HttpGet(port, path).find("200 OK") != std::string::npos);
    }
    const double seconds = Seconds(start);
    bench::Row({"HTTP end to end",
                Rate(static_cast<double>(requests), seconds)},
               22);
    json.Add("query.http_rps", static_cast<double>(requests) / seconds);
    (*server)->Stop();
  }

  const double speedup = cache_hit_rps / consistent_rps;
  std::printf("\ncache hit vs per-request consistent rebuild: x%.3g\n",
              speedup);
  json.Add("query.cache_speedup_vs_consistent", speedup);
  // The acceptance floor: serving from the snapshot must beat redoing the
  // rebuild's export and reconstruction per request by at least 10x, on
  // any hardware.
  LDPM_CHECK(speedup >= 10.0);

  if (!args.json_path.empty()) {
    if (json.WriteFile(args.json_path)) {
      std::printf("\nwrote %s\n", args.json_path.c_str());
    } else {
      return 1;
    }
  }
  return 0;
}
