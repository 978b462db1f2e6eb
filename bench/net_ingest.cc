// Network ingest load generator: N concurrent loopback clients streaming
// collection frames into a net::IngestServer, vs. the same bytes through
// Collector::IngestFrames directly (the no-network baseline).
//
// Every client is a resumable session (net/protocol.h) sending its whole
// stream with one SendBytes, so the numbers include the client's replay
// copy of every frame and the server's acks.
//
// Measures, per client count:
//
//   * net.cN_frame_rps — reports/sec absorbed end to end (client framing
//     and replay buffering, loopback TCP, server reassembly and acks,
//     IngestFrames routing, shard absorb), including the Flush barrier;
//   * net.cN_mbps     — stream megabytes/sec over the same window.
//
// The last (highest-concurrency) run also reports the server's per-frame
// routing latency from its own ldpm_net_frame_route_latency_ns histogram
// as net.latency_p50_us / net.latency_p99_us — the obs layer measuring
// the bench that gates the obs layer's overhead.
//
// The direct baseline lands in net.direct_frame_rps; the gap is the
// network front-end's overhead (loopback syscalls, replay buffering,
// reassembly — the protocol work is identical by construction). With
// --json the keys merge into BENCH_ingest.json, where the release CI
// job's regression gate watches every *_frame_rps key.
//
// A --smoke window streams for only a few milliseconds, so one window is
// mostly scheduling noise; --smoke times every client count over several
// windows, each into a fresh server and collector, and reports the median
// window. The longer quick and --full windows run once.
//
// The mux stream interleaves three mixed-kind collections (InpRR bitmap,
// MargPS, categorical InpES) like the engine mux bench, so routing,
// mixed-record parsing, and InpES's packed values all sit on the hot path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/collector.h"
#include "net/frame_client.h"
#include "net/ingest_server.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace {

using ldpm::CreateProtocol;
using ldpm::ProtocolConfig;
using ldpm::ProtocolKind;
using ldpm::Report;
using ldpm::Rng;

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

struct MuxStream {
  std::vector<uint8_t> bytes;
  size_t reports = 0;
};

struct Fixture {
  struct Stream {
    std::string id;
    ProtocolKind kind;
    ProtocolConfig config;
  };
  std::vector<Stream> streams;
  /// One pre-built interleaved frame stream per client.
  std::vector<MuxStream> client_streams;

  void RegisterAll(ldpm::engine::Collector* collector) const {
    for (const auto& stream : streams) {
      LDPM_CHECK(
          collector->Register(stream.id, stream.kind, stream.config).ok());
    }
  }
};

Fixture BuildFixture(int max_clients, size_t reports_per_client,
                     uint64_t seed) {
  Fixture f;
  ProtocolConfig rr;
  rr.d = 5;
  rr.k = 2;
  rr.epsilon = 1.0;
  ProtocolConfig ps;
  ps.d = 10;
  ps.k = 2;
  ps.epsilon = 1.0;
  ProtocolConfig es;
  es.d = 6;
  es.k = 2;
  es.epsilon = 1.0;
  f.streams = {
      {"bitmap", ProtocolKind::kInpRR, rr},
      {"hadamard", ProtocolKind::kMargPS, ps},
      {"efron-stein", ProtocolKind::kInpES, es},
  };
  Rng rng(seed);
  const size_t reports_per_frame = 512;
  for (int c = 0; c < max_clients; ++c) {
    MuxStream mux;
    size_t remaining = reports_per_client;
    while (remaining > 0) {
      for (const auto& stream : f.streams) {
        auto encoder = CreateProtocol(stream.kind, stream.config);
        LDPM_CHECK(encoder.ok());
        const size_t n = std::min(reports_per_frame, remaining);
        std::vector<Report> reports;
        reports.reserve(n);
        const uint64_t mask = (uint64_t{1} << stream.config.d) - 1;
        for (size_t i = 0; i < n; ++i) {
          reports.push_back((*encoder)->Encode(rng() & mask, rng));
        }
        auto frame = ldpm::SerializeReportBatch(stream.kind, stream.config,
                                                reports);
        LDPM_CHECK(frame.ok());
        LDPM_CHECK(
            ldpm::AppendCollectionFrame(stream.id, *frame, mux.bytes).ok());
        mux.reports += n;
      }
      remaining -= std::min(reports_per_frame, remaining);
    }
    f.client_streams.push_back(std::move(mux));
  }
  return f;
}

ldpm::engine::CollectorOptions MakeCollectorOptions(int shards) {
  ldpm::engine::CollectorOptions options;
  options.engine_defaults.num_shards = shards;
  options.max_pending_batches_total = 256;
  return options;
}

/// One timed window: `clients` concurrent sessions stream their muxes
/// into `collector` through a fresh IngestServer. Returns the seconds from
/// the first connect through the Flush barrier, after checking that all
/// `reports` reached their collections.
double StreamWindow(const Fixture& fixture, int clients, size_t reports,
                    ldpm::engine::Collector* collector) {
  fixture.RegisterAll(collector);
  auto server = ldpm::net::IngestServer::Start(collector);
  LDPM_CHECK(server.ok());
  const uint16_t port = (*server)->port();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ldpm::net::FrameClient::Connect("127.0.0.1", port);
      LDPM_CHECK(client.ok());
      const auto& mux = fixture.client_streams[c];
      LDPM_CHECK(client->SendBytes(mux.bytes.data(), mux.bytes.size()).ok());
      auto reply = client->Finish();
      LDPM_CHECK(reply.ok());
      LDPM_CHECK(reply->status.ok());
    });
  }
  for (auto& thread : threads) thread.join();
  LDPM_CHECK(collector->Flush().ok());
  const double seconds = Seconds(start);
  LDPM_CHECK((*server)->Stop().ok());
  // Cross-check: every report reached its collection.
  uint64_t absorbed = 0;
  for (const auto& stream : fixture.streams) {
    auto handle = collector->Handle(stream.id);
    LDPM_CHECK(handle.ok());
    auto count = handle->ReportsAbsorbed();
    LDPM_CHECK(count.ok());
    absorbed += *count;
  }
  LDPM_CHECK(absorbed == reports);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const ldpm::bench::BenchArgs args = ldpm::bench::Parse(argc, argv);
  ldpm::bench::Banner("net_ingest",
                      "loopback TCP frame streaming vs direct IngestFrames",
                      args);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  ldpm::bench::JsonWriter json;
  json.Add("bench", std::string("net_ingest"));

  const std::vector<int> client_counts = {1, 2, 4};
  const int max_clients =
      *std::max_element(client_counts.begin(), client_counts.end());
  const size_t reports_per_client = args.smoke ? 30000 : 300000;
  const int shards = 2;
  const Fixture fixture =
      BuildFixture(max_clients, reports_per_client, args.seed);
  size_t total_bytes_all = 0;
  for (const auto& mux : fixture.client_streams) {
    total_bytes_all += mux.bytes.size();
  }
  std::printf("mux: 3 collections (InpRR d=5, MargPS d=10, InpES d=6), "
              "%zu reports/client, %.1f MB total stream bytes\n\n",
              reports_per_client * 3,
              static_cast<double>(total_bytes_all) / 1e6);

  // Direct baseline: the same bytes through IngestFrames, no sockets.
  {
    auto collector = ldpm::engine::Collector::Create(MakeCollectorOptions(shards));
    LDPM_CHECK(collector.ok());
    fixture.RegisterAll(collector->get());
    auto start = std::chrono::steady_clock::now();
    size_t reports = 0;
    for (const auto& mux : fixture.client_streams) {
      LDPM_CHECK((*collector)->IngestFrames(mux.bytes).ok());
      reports += mux.reports;
    }
    LDPM_CHECK((*collector)->Flush().ok());
    const double seconds = Seconds(start);
    ldpm::bench::Row({"direct IngestFrames",
                      Rate(static_cast<double>(reports), seconds)},
                     22);
    json.Add("net.direct_frame_rps", static_cast<double>(reports) / seconds);
  }

  // Networked: N concurrent clients over loopback TCP.
  const int windows = args.smoke ? 9 : 1;
  for (int clients : client_counts) {
    size_t reports = 0;
    size_t bytes = 0;
    for (int c = 0; c < clients; ++c) {
      reports += fixture.client_streams[c].reports;
      bytes += fixture.client_streams[c].bytes.size();
    }
    std::vector<double> window_seconds;
    std::unique_ptr<ldpm::engine::Collector> collector;
    for (int w = 0; w < windows; ++w) {
      auto fresh =
          ldpm::engine::Collector::Create(MakeCollectorOptions(shards));
      LDPM_CHECK(fresh.ok());
      collector = *std::move(fresh);
      window_seconds.push_back(
          StreamWindow(fixture, clients, reports, collector.get()));
    }
    std::sort(window_seconds.begin(), window_seconds.end());
    const double seconds = window_seconds[windows / 2];

    const std::string label = "net c" + std::to_string(clients);
    char mbps[32];
    std::snprintf(mbps, sizeof(mbps), "%.3g MB/s",
                  static_cast<double>(bytes) / 1e6 / seconds);
    ldpm::bench::Row({label, Rate(static_cast<double>(reports), seconds),
                      mbps},
                     22);
    json.Add("net.c" + std::to_string(clients) + "_frame_rps",
             static_cast<double>(reports) / seconds);
    json.Add("net.c" + std::to_string(clients) + "_mbps",
             static_cast<double>(bytes) / 1e6 / seconds);

    if (clients == max_clients) {
      // Routing-latency quantiles from the server's own histogram (the
      // last window's collector owns the registry the server published
      // into).
      auto latency = collector->metrics()->HistogramValues(
          "ldpm_net_frame_route_latency_ns");
      LDPM_CHECK(latency.ok());
      const double p50_us = latency->Quantile(0.5) / 1e3;
      const double p99_us = latency->Quantile(0.99) / 1e3;
      char quantiles[64];
      std::snprintf(quantiles, sizeof(quantiles),
                    "p50 %.3g us, p99 %.3g us", p50_us, p99_us);
      ldpm::bench::Row({"route latency", quantiles}, 22);
      json.Add("net.latency_p50_us", p50_us);
      json.Add("net.latency_p99_us", p99_us);
    }
  }

  if (!args.json_path.empty()) {
    if (json.WriteFile(args.json_path)) {
      std::printf("\nwrote %s\n", args.json_path.c_str());
    } else {
      return 1;
    }
  }
  return 0;
}
