// Demo: the network ingest front-end end to end — a net::IngestServer over
// an engine::Collector with a shutdown checkpoint, a net::QueryServer
// whose /metrics is scraped live over HTTP, concurrent net::FrameClient
// streams, a client killed mid-stream, a byte-precise stream rejection,
// graceful stop, simulated crash, and restart from the checkpoint file
// (docs/wire-format.md specs every byte on the wire;
// docs/observability.md catalogs every metric on /metrics).
//
//   ./server_demo [--chaos|--query] [num_shards [num_users]]
//
// With --chaos it instead walks the failure-recovery story of
// docs/operations.md: failpoints drop connections at accept and
// mid-stream while a resumable client retries and replays to an
// exactly-once ingest, an injected fsync fault surfaces as a sticky
// checkpoint error and clears on the next cut, and a corrupted newest
// checkpoint generation is quarantined while restore falls back to the
// previous one.
//
// With --query it walks the read side (docs/querying.md): a
// net::QueryServer over a live collector serving consistency-post-
// processed marginals whose cells are bitwise the library answer, epoch
// advance on ingest, the byte-precise error surface, and the Chow-Liu
// model endpoint.
//
// Exits nonzero on any regression — CI runs all modes as smoke tests.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "core/file_io.h"
#include "engine/collector.h"
#include "net/frame_client.h"
#include "net/ingest_server.h"
#include "net/query_server.h"
#include "net/socket.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace {

#define DEMO_CHECK(condition, what)                                   \
  do {                                                                \
    if (!(condition)) {                                               \
      std::fprintf(stderr, "FAILED: %s\n", what);                     \
      return 1;                                                       \
    }                                                                 \
  } while (0)

/// Builds one client's share of a collection's reports as wire frames.
std::vector<std::vector<uint8_t>> BuildFrames(ldpm::ProtocolKind kind,
                                              const ldpm::ProtocolConfig& config,
                                              size_t reports, uint64_t seed) {
  auto encoder = ldpm::CreateProtocol(kind, config);
  if (!encoder.ok()) return {};
  ldpm::Rng rng(seed);
  const uint64_t mask = (uint64_t{1} << config.d) - 1;
  std::vector<std::vector<uint8_t>> frames;
  const size_t per_frame = 1024;
  for (size_t done = 0; done < reports;) {
    const size_t n = std::min(per_frame, reports - done);
    std::vector<ldpm::Report> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back((*encoder)->Encode(rng() & mask, rng));
    }
    auto frame = ldpm::SerializeReportBatch(kind, config, batch);
    if (!frame.ok()) return {};
    frames.push_back(*std::move(frame));
    done += n;
  }
  return frames;
}

/// Raw HTTP GET over net::Socket (no HTTP library in the tree, none
/// needed): returns the whole response, or empty on any socket error.
/// `Connection: close` makes the server close after the response, which
/// ends the read-to-EOF.
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

/// Value of series `name` in a Prometheus text body; -1 when absent.
double SeriesValue(const std::string& body, const std::string& name) {
  size_t pos = 0;
  while ((pos = body.find(name + " ", pos)) != std::string::npos) {
    if (pos != 0 && body[pos - 1] != '\n') {
      pos += name.size();
      continue;
    }
    return std::strtod(body.c_str() + pos + name.size() + 1, nullptr);
  }
  return -1.0;
}

/// The --chaos walkthrough (docs/operations.md end to end). Every fault
/// is injected through a failpoint; every recovery is checked exactly.
int RunChaosWalkthrough(int num_shards, size_t num_users) {
  using namespace ldpm;

  const std::string checkpoint_path =
      (std::filesystem::temp_directory_path() /
       ("server_demo_chaos_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  failpoint::DisarmAll();

  std::printf(
      "== chaos: injected drops + retry/resume + generation fallback ==\n");

  ProtocolConfig clicks_config;
  clicks_config.d = 10;
  clicks_config.k = 2;
  clicks_config.epsilon = 1.0;

  engine::CollectorOptions options;
  options.engine_defaults.num_shards = num_shards;
  options.checkpoint_generations = 2;
  auto collector = engine::Collector::Create(options);
  DEMO_CHECK(collector.ok(), "chaos collector create");
  DEMO_CHECK(
      (*collector)->Register("clicks", ProtocolKind::kInpHT, clicks_config).ok(),
      "chaos register");

  uint64_t cut1_reports = 0;
  {
    net::IngestServerOptions server_options;
    server_options.read_chunk_bytes = 4096;  // drops land mid-stream
    auto server = net::IngestServer::Start(collector->get(), server_options);
    DEMO_CHECK(server.ok(), "chaos server start");

    // One contiguous resumable session stream of collection frames.
    const auto frames =
        BuildFrames(ProtocolKind::kInpHT, clicks_config, num_users, 7);
    DEMO_CHECK(!frames.empty(), "chaos frame build");
    std::vector<uint8_t> stream;
    for (const auto& frame : frames) {
      DEMO_CHECK(AppendCollectionFrame("clicks", frame, stream).ok(),
                 "chaos frame append");
    }

    // Faults: the first accepted connection is dropped with a reset
    // (pure churn), then after three clean reads two mid-stream reads
    // fail — each one severs the connection while the client is ahead
    // of the server, stranding sent-but-unrouted frames for replay.
    failpoint::Spec accept_drop;
    accept_drop.count = 1;
    failpoint::Arm("net.server.accept", accept_drop);
    failpoint::Spec read_drop;
    read_drop.count = 2;
    read_drop.skip = 3;
    failpoint::Arm("net.server.read", read_drop);

    net::FrameClientOptions client_options;
    client_options.retry.max_attempts = 10;
    client_options.retry.initial_backoff = std::chrono::milliseconds(10);
    client_options.retry.max_backoff = std::chrono::milliseconds(100);
    auto client = net::FrameClient::Connect("127.0.0.1", (*server)->port(),
                                            client_options);
    DEMO_CHECK(client.ok(), "chaos client connect");
    DEMO_CHECK(client->SendBytes(stream.data(), stream.size()).ok(),
               "chaos stream send");
    auto reply = client->Finish();
    DEMO_CHECK(reply.ok(), "chaos reply read");
    DEMO_CHECK(reply->status.ok(), "chaos stream acked");
    DEMO_CHECK(reply->bytes_routed == stream.size(), "session bytes exact");
    const uint64_t accept_drops = failpoint::HitCount("net.server.accept");
    const uint64_t read_faults = failpoint::HitCount("net.server.read");
    failpoint::DisarmAll();  // zeroes hit counts too

    const net::IngestServerStats stats = (*server)->stats();
    std::printf("  injected: %llu accept drop(s), %llu read fault(s)\n",
                static_cast<unsigned long long>(accept_drops),
                static_cast<unsigned long long>(read_faults));
    DEMO_CHECK(accept_drops == 1 && read_faults == 2, "all faults fired");
    std::printf(
        "  client: %llu reconnect(s), %llu frame(s) replayed; "
        "server resumed %llu session(s)\n",
        static_cast<unsigned long long>(client->reconnects()),
        static_cast<unsigned long long>(client->frames_replayed()),
        static_cast<unsigned long long>(stats.sessions_resumed));
    DEMO_CHECK(client->reconnects() >= 1, "resume exercised");

    // Exactly-once: despite drops and replay, every report counts once.
    DEMO_CHECK((*collector)->Flush().ok(), "chaos flush");
    auto clicks = (*collector)->Handle("clicks");
    DEMO_CHECK(clicks.ok(), "chaos handle");
    auto absorbed = clicks->ReportsAbsorbed();
    DEMO_CHECK(absorbed.ok(), "chaos count");
    std::printf("  exactly-once: %llu reports absorbed (expected %zu)\n",
                static_cast<unsigned long long>(*absorbed), num_users);
    DEMO_CHECK(*absorbed == num_users, "exactly-once count");
    DEMO_CHECK((*server)->Stop().ok(), "chaos server stop");
    cut1_reports = *absorbed;
  }

  // A transient disk fault: the cut fails loudly, the error is sticky,
  // and the next successful cut clears it.
  failpoint::ArmError("file_io.fsync");
  DEMO_CHECK(!(*collector)->CheckpointTo(checkpoint_path).ok(),
             "fsync fault surfaces");
  DEMO_CHECK(!(*collector)->LastCheckpointError().ok(), "sticky error set");
  failpoint::DisarmAll();
  DEMO_CHECK((*collector)->CheckpointTo(checkpoint_path).ok(),
             "checkpoint lands");
  DEMO_CHECK((*collector)->LastCheckpointError().ok(), "sticky error cleared");
  std::printf("  fsync fault: cut failed loudly, next cut cleared it\n");

  // A second cut so two generations exist, then a bit flip in the newest.
  {
    const auto extra =
        BuildFrames(ProtocolKind::kInpHT, clicks_config, num_users / 2, 8);
    std::vector<uint8_t> stream;
    for (const auto& frame : extra) {
      DEMO_CHECK(AppendCollectionFrame("clicks", frame, stream).ok(),
                 "extra frame append");
    }
    DEMO_CHECK((*collector)->IngestFrames(stream).ok(), "extra ingest");
    DEMO_CHECK((*collector)->Flush().ok(), "extra flush");
  }
  DEMO_CHECK((*collector)->CheckpointTo(checkpoint_path).ok(), "second cut");
  auto image = ReadBinaryFile(checkpoint_path);
  DEMO_CHECK(image.ok(), "read newest generation");
  (*image)[image->size() / 2] ^= 0x01;
  DEMO_CHECK(WriteBinaryFileAtomic(checkpoint_path, *image).ok(),
             "corrupt newest generation");

  // Restart: restore detects the corruption, quarantines the file to
  // *.corrupt, and falls back to the previous generation (cut 1).
  {
    engine::CollectorOptions restart_options;
    restart_options.engine_defaults.num_shards = num_shards;
    restart_options.checkpoint_generations = 2;
    auto restarted = engine::Collector::Create(restart_options);
    DEMO_CHECK(restarted.ok(), "restart create");
    DEMO_CHECK((*restarted)
                   ->Register("clicks", ProtocolKind::kInpHT, clicks_config)
                   .ok(),
               "restart register");
    DEMO_CHECK((*restarted)->RestoreFrom(checkpoint_path).ok(),
               "fallback restore");
    auto clicks = (*restarted)->Handle("clicks");
    DEMO_CHECK(clicks.ok(), "restart handle");
    auto absorbed = clicks->ReportsAbsorbed();
    DEMO_CHECK(absorbed.ok(), "restart count");
    DEMO_CHECK(std::filesystem::exists(checkpoint_path + ".corrupt"),
               "corrupt generation quarantined");
    std::printf(
        "  fallback: newest generation corrupt -> quarantined to *.corrupt, "
        "restored cut 1 (%llu reports)\n",
        static_cast<unsigned long long>(*absorbed));
    DEMO_CHECK(*absorbed == cut1_reports, "fallback restored cut 1");
  }

  std::filesystem::remove(checkpoint_path);
  std::filesystem::remove(checkpoint_path + ".1");
  std::filesystem::remove(checkpoint_path + ".corrupt");
  std::printf("CHAOS OK\n");
  return 0;
}

/// The --query walkthrough: the read-side HTTP endpoint end to end
/// (docs/querying.md). A QueryServer over a live collector serves a
/// marginal whose cells must be bitwise the library's own answer (the
/// merged state's coefficient export rebuilt by Lemma 3.7), the epoch
/// advances with the ingest watermark, the error surface is byte-precise,
/// and the Chow-Liu model endpoint fits over the same snapshot.
int RunQueryWalkthrough(int num_shards, size_t num_users) {
  using namespace ldpm;

  std::printf("== query plane: cached consistent marginals over HTTP ==\n");

  ProtocolConfig clicks_config;
  clicks_config.d = 10;
  clicks_config.k = 2;
  clicks_config.epsilon = 1.0;
  ProtocolConfig crashes_config;
  crashes_config.d = 8;
  crashes_config.k = 2;
  crashes_config.epsilon = 0.5;

  engine::CollectorOptions options;
  options.engine_defaults.num_shards = num_shards;
  auto collector = engine::Collector::Create(options);
  DEMO_CHECK(collector.ok(), "query collector create");
  auto clicks =
      (*collector)->Register("clicks", ProtocolKind::kInpHT, clicks_config);
  DEMO_CHECK(clicks.ok(), "query register clicks");
  DEMO_CHECK(
      (*collector)
          ->Register("crashes", ProtocolKind::kMargPS, crashes_config)
          .ok(),
      "query register crashes");

  // Devices encode their rows; the collection ingests the wire frames.
  const std::vector<std::vector<uint8_t>> frames =
      BuildFrames(ProtocolKind::kInpHT, clicks_config, num_users, 29);
  DEMO_CHECK(!frames.empty(), "query frame build");
  const auto ingest = [&] {
    for (const std::vector<uint8_t>& frame : frames) {
      if (!clicks->IngestWireBatch(frame).ok()) return false;
    }
    return (*collector)->Flush().ok();
  };
  DEMO_CHECK(ingest(), "query ingest");

  auto server = net::QueryServer::Start(collector->get());
  DEMO_CHECK(server.ok(), "query server start");
  const uint16_t port = (*server)->port();
  std::printf("query endpoint on 127.0.0.1:%u\n", port);

  DEMO_CHECK(HttpGet(port, "/healthz").find("200 OK") != std::string::npos,
             "query healthz");
  const std::string listing = HttpGet(port, "/v1/collections");
  DEMO_CHECK(listing.find("\"id\":\"clicks\"") != std::string::npos &&
                 listing.find("\"id\":\"crashes\"") != std::string::npos,
             "collections listing");

  // The served cells must be bitwise the library's own consistent answer:
  // export the merged state's coefficients up to k, rebuild the table by
  // Lemma 3.7, render with 17 significant digits — the exact bytes the
  // endpoint emits.
  const uint64_t beta = 0b11;
  const std::string marginal_path =
      "/v1/marginal?collection=clicks&attrs=0,1";
  const std::string answer = HttpGet(port, marginal_path);
  DEMO_CHECK(answer.find("200 OK") != std::string::npos, "marginal serve");
  {
    auto coefficients = clicks->Coefficients(clicks_config.k);
    DEMO_CHECK(coefficients.ok(), "library coefficient export");
    auto expected = coefficients->ReconstructMarginal(beta);
    DEMO_CHECK(expected.ok(), "library ReconstructMarginal");
    std::string cells = "\"cells\":[";
    for (uint64_t c = 0; c < expected->size(); ++c) {
      if (c != 0) cells += ",";
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", expected->at_compact(c));
      cells += buffer;
    }
    cells += "]";
    DEMO_CHECK(answer.find(cells) != std::string::npos,
               "HTTP cells bitwise-equal to the library answer");
    std::printf("  /v1/marginal attrs=0,1: cells bitwise-equal to "
                "Coefficients+ReconstructMarginal\n");
  }
  DEMO_CHECK(answer.find("\"epoch\":1") != std::string::npos,
             "first epoch is 1");

  // More ingest advances the watermark; the next read serves a new epoch.
  DEMO_CHECK(ingest(), "query ingest 2");
  const std::string refreshed = HttpGet(port, marginal_path);
  DEMO_CHECK(refreshed.find("200 OK") != std::string::npos, "re-serve");
  DEMO_CHECK(refreshed.find("\"epoch\":2") != std::string::npos,
             "ingest advanced the epoch");
  std::printf("  ingest watermark advanced -> epoch 2 served\n");

  // Byte-precise error surface (tests/net/query_server_test pins more).
  const std::string bad =
      HttpGet(port, "/v1/marginal?collection=clicks&attrs=zero");
  DEMO_CHECK(bad.find("400 Bad Request") != std::string::npos &&
                 bad.find("attrs: expected comma-separated attribute ids, "
                          "got \"zero\"") != std::string::npos,
             "byte-precise 400");
  DEMO_CHECK(HttpGet(port, "/v1/marginal?collection=nope&attrs=0")
                     .find("404 Not Found") != std::string::npos,
             "unknown collection 404");

  // The model endpoint: a Chow-Liu tree over the same snapshot — d-1
  // edges and one CPT per attribute.
  const std::string model = HttpGet(port, "/v1/model?collection=clicks");
  DEMO_CHECK(model.find("200 OK") != std::string::npos, "model serve");
  DEMO_CHECK(model.find("\"total_mutual_information\":") != std::string::npos,
             "model total MI");
  size_t cpts = 0;
  for (size_t pos = 0;
       (pos = model.find("\"attribute\":", pos)) != std::string::npos;
       pos += 12) {
    ++cpts;
  }
  DEMO_CHECK(cpts == static_cast<size_t>(clicks_config.d),
             "one CPT per attribute");
  std::printf("  /v1/model: %zu CPTs, tree fitted over the cached 2-way "
              "marginals\n", cpts);

  (*server)->Stop();
  std::printf("QUERY OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldpm;

  bool chaos = false;
  bool query = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--chaos") {
      chaos = true;
    } else if (std::string(argv[i]) == "--query") {
      query = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int num_shards = positional.size() > 0 ? std::atoi(positional[0]) : 2;
  const size_t num_users = positional.size() > 1
                               ? std::strtoull(positional[1], nullptr, 10)
                               : size_t{1} << 18;
  if (chaos) return RunChaosWalkthrough(num_shards, num_users);
  if (query) return RunQueryWalkthrough(num_shards, num_users);
  const std::string checkpoint_path =
      (std::filesystem::temp_directory_path() /
       ("server_demo_" + std::to_string(::getpid()) + ".ckpt"))
          .string();

  ProtocolConfig clicks_config;
  clicks_config.d = 10;
  clicks_config.k = 2;
  clicks_config.epsilon = 1.0;
  ProtocolConfig crashes_config;
  crashes_config.d = 8;
  crashes_config.k = 2;
  crashes_config.epsilon = 0.5;

  std::printf("== network ingest: %d shard(s)/collection, %zu users/stream ==\n",
              num_shards, num_users);

  // ---- Serve: two collections behind one TCP listener -------------------
  uint64_t clicks_absorbed = 0;
  uint64_t crashes_absorbed = 0;
  double clicks_q0 = 0.0;
  {
    engine::CollectorOptions options;
    options.engine_defaults.num_shards = num_shards;
    options.max_pending_batches_total = 128;
    options.checkpoint_path = checkpoint_path;  // shutdown checkpoint on stop
    auto collector = engine::Collector::Create(options);
    DEMO_CHECK(collector.ok(), "collector create");
    DEMO_CHECK((*collector)
                   ->Register("clicks", ProtocolKind::kInpHT, clicks_config)
                   .ok(),
               "register clicks");
    DEMO_CHECK((*collector)
                   ->Register("crashes", ProtocolKind::kMargPS, crashes_config)
                   .ok(),
               "register crashes");

    auto server = net::IngestServer::Start(collector->get());
    DEMO_CHECK(server.ok(), "server start");
    // The query endpoint's /metrics serves the collector's registry —
    // every layer (engine, collector, net) publishes into it.
    auto query_server = net::QueryServer::Start(collector->get());
    DEMO_CHECK(query_server.ok(), "query server start");
    std::printf("listening on 127.0.0.1:%u (/metrics on :%u)\n",
                (*server)->port(), (*query_server)->port());

    // Three concurrent clients: two stream whole collections, one dies
    // mid-stream (every frame it sent counts, exactly once).
    const auto clicks_frames =
        BuildFrames(ProtocolKind::kInpHT, clicks_config, num_users, 1);
    const auto crashes_frames =
        BuildFrames(ProtocolKind::kMargPS, crashes_config, num_users, 2);
    DEMO_CHECK(!clicks_frames.empty() && !crashes_frames.empty(),
               "frame build");

    std::vector<std::thread> streamers;
    std::vector<int> stream_errors(2, 0);
    streamers.emplace_back([&] {
      auto client = net::FrameClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) { stream_errors[0] = 1; return; }
      for (const auto& frame : clicks_frames) {
        if (!client->SendFrame("clicks", frame).ok()) { stream_errors[0] = 1; return; }
      }
      auto reply = client->Finish();
      if (!reply.ok() || !reply->status.ok()) stream_errors[0] = 1;
    });
    streamers.emplace_back([&] {
      auto client = net::FrameClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) { stream_errors[1] = 1; return; }
      for (const auto& frame : crashes_frames) {
        if (!client->SendFrame("crashes", frame).ok()) { stream_errors[1] = 1; return; }
      }
      auto reply = client->Finish();
      if (!reply.ok() || !reply->status.ok()) stream_errors[1] = 1;
    });
    uint64_t killed_whole_frames = 0;
    {
      // The dying client: two whole frames, then it dies without ending
      // its stream. (A session sends whole frames only; the server's
      // discard of a severed partial frame is pinned by the ingest-server
      // tests.)
      auto client = net::FrameClient::Connect("127.0.0.1", (*server)->port());
      DEMO_CHECK(client.ok(), "killed client connect");
      std::vector<uint8_t> framed;
      DEMO_CHECK(
          AppendCollectionFrame("clicks", clicks_frames[0], framed).ok(),
          "frame");
      DEMO_CHECK(client->SendBytes(framed.data(), framed.size()).ok(), "send");
      DEMO_CHECK(client->SendBytes(framed.data(), framed.size()).ok(), "send");
      client->Abort();  // process dies mid-stream
      killed_whole_frames = 2;
    }
    for (auto& streamer : streamers) streamer.join();
    DEMO_CHECK(stream_errors[0] == 0 && stream_errors[1] == 0,
               "client streams acked");

    // A stream naming an unknown collection is rejected byte-precisely.
    {
      auto client = net::FrameClient::Connect("127.0.0.1", (*server)->port());
      DEMO_CHECK(client.ok(), "rogue client connect");
      DEMO_CHECK(client->SendFrame("clicks", clicks_frames[0]).ok(), "send");
      // The verdict may already arrive here; Finish returns it either way.
      (void)client->SendFrame("mystery", crashes_frames[0]);
      auto reply = client->Finish();
      DEMO_CHECK(reply.ok(), "rogue reply read");
      DEMO_CHECK(!reply->status.ok(), "rogue stream rejected");
      std::printf("rejected rogue stream: %s\n",
                  reply->status.message().c_str());
    }

    const net::IngestServerStats stats = (*server)->stats();
    std::printf("served %llu connection(s): %llu frames, %.1f MB routed\n",
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.frames_routed),
                static_cast<double>(stats.bytes_routed) / 1e6);

    // Live scrape while the pipeline is up: /metrics must agree with the
    // server's own counters and show real engine activity.
    {
      // Flush first so the absorbed-report counter is exact (absorption
      // is asynchronous; the scrape itself never blocks on it).
      DEMO_CHECK((*collector)->Flush().ok(), "flush before scrape");
      const std::string health = HttpGet((*query_server)->port(), "/healthz");
      DEMO_CHECK(health.find("200 OK") != std::string::npos, "healthz");
      const std::string body = HttpGet((*query_server)->port(), "/metrics");
      DEMO_CHECK(body.find("200 OK") != std::string::npos, "metrics scrape");
      DEMO_CHECK(SeriesValue(body, "ldpm_net_frames_routed_total") ==
                     static_cast<double>(stats.frames_routed),
                 "scrape agrees with server counters");
      DEMO_CHECK(SeriesValue(body, "ldpm_net_bytes_routed_total") > 0.0,
                 "bytes routed metric nonzero");
      DEMO_CHECK(SeriesValue(body, "ldpm_collector_collections") == 2.0,
                 "collections gauge");
      DEMO_CHECK(
          SeriesValue(
              body,
              "ldpm_collector_frames_routed_total{collection=\"crashes\"}") >
              0.0,
          "per-collection frame counter nonzero");
      DEMO_CHECK(
          SeriesValue(
              body,
              "ldpm_engine_reports_absorbed_total{collection=\"crashes\"}") ==
              static_cast<double>(num_users),
          "engine absorb counter exact");
      DEMO_CHECK(
          SeriesValue(body, "ldpm_net_frame_route_latency_ns_count") > 0.0,
          "route latency histogram populated");
      std::printf("scraped /metrics: %zu bytes, frames metric matches\n",
                  body.size());
    }

    // Graceful stop: stop accepting -> drain readers -> Collector::Drain()
    // (flush everything, write the shutdown checkpoint).
    DEMO_CHECK((*server)->Stop().ok(), "graceful stop");

    auto clicks = (*collector)->Handle("clicks");
    auto crashes = (*collector)->Handle("crashes");
    DEMO_CHECK(clicks.ok() && crashes.ok(), "handles");
    auto clicks_count = clicks->ReportsAbsorbed();
    auto crashes_count = crashes->ReportsAbsorbed();
    DEMO_CHECK(clicks_count.ok() && crashes_count.ok(), "counts");
    clicks_absorbed = *clicks_count;
    crashes_absorbed = *crashes_count;
    auto q = clicks->Query(0b11);
    DEMO_CHECK(q.ok(), "query");
    clicks_q0 = q->at_compact(0);
    std::printf("pre-crash:  clicks=%llu crashes=%llu  P[beta=11,cell=00]=%.5f\n",
                static_cast<unsigned long long>(clicks_absorbed),
                static_cast<unsigned long long>(crashes_absorbed), clicks_q0);
    DEMO_CHECK(crashes_absorbed == num_users, "crashes complete");
    // Exact accounting: the full stream, the killed client's two
    // 1024-report frames, and the rogue client's one valid frame before
    // the rejection.
    const uint64_t expected_clicks =
        num_users + killed_whole_frames * 1024 + 1024;
    DEMO_CHECK(clicks_absorbed == expected_clicks, "clicks exact count");
  }  // "crash": collector destroyed (second, idempotent shutdown checkpoint)

  // ---- Restart: restore the whole multi-collection state ----------------
  {
    engine::CollectorOptions options;
    options.engine_defaults.num_shards = num_shards * 2;  // re-shard, why not
    auto collector = engine::Collector::Create(options);
    DEMO_CHECK(collector.ok(), "restart create");
    DEMO_CHECK((*collector)
                   ->Register("clicks", ProtocolKind::kInpHT, clicks_config)
                   .ok(),
               "re-register clicks");
    DEMO_CHECK((*collector)
                   ->Register("crashes", ProtocolKind::kMargPS, crashes_config)
                   .ok(),
               "re-register crashes");
    DEMO_CHECK((*collector)->RestoreFrom(checkpoint_path).ok(), "restore");

    auto clicks = (*collector)->Handle("clicks");
    auto crashes = (*collector)->Handle("crashes");
    DEMO_CHECK(clicks.ok() && crashes.ok(), "restart handles");
    auto clicks_count = clicks->ReportsAbsorbed();
    auto crashes_count = crashes->ReportsAbsorbed();
    DEMO_CHECK(clicks_count.ok() && crashes_count.ok(), "restart counts");
    auto q = clicks->Query(0b11);
    DEMO_CHECK(q.ok(), "restart query");
    std::printf("post-crash: clicks=%llu crashes=%llu  P[beta=11,cell=00]=%.5f\n",
                static_cast<unsigned long long>(*clicks_count),
                static_cast<unsigned long long>(*crashes_count),
                q->at_compact(0));
    DEMO_CHECK(*clicks_count == clicks_absorbed, "no flushed batch lost");
    DEMO_CHECK(*crashes_count == crashes_absorbed, "no flushed batch lost");
    DEMO_CHECK(std::abs(q->at_compact(0) - clicks_q0) == 0.0,
               "restored estimates bitwise-identical");
  }

  std::filesystem::remove(checkpoint_path);
  std::printf("OK\n");
  return 0;
}
