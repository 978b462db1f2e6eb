// Engine microbench: the batched zero-copy ingest pipeline vs. the classic
// per-report path, plus shard scaling.
//
// Three aggregator-side ingest paths are measured per protocol:
//
//   * perreport — one virtual Absorb() call per pre-encoded in-memory
//     Report (the in-memory baseline);
//   * parse     — DeserializeReport() + Absorb() per wire record: the
//     naive path for reports arriving as bytes, which materializes a
//     Report (and for InpRR its heap-allocated `ones` vector) per record;
//   * wire      — AbsorbWireBatch() over the same wire batch frames
//     (zero-copy: records parsed in place, no Report materialization; for
//     InpRR the packed bitmaps are summed by a Harley–Seal carry-save tree
//     into vertical bit-plane counters).
//
// All three aggregators must end in bitwise-identical state; the bench
// checks their snapshots and aborts otherwise, so an optimized build whose
// kernels diverge fails here.
//
// The acceptance comparison for the batched pipeline is wire vs parse —
// both start from identical wire bytes.
//
// The engine section feeds the wire frames through an engine::Collector
// collection at 1/2/4 shards, and a mux section routes an interleaved
// multi-collection frame stream through Collector::IngestFrames.
// Shard scaling requires cores: expect flat numbers on one hardware thread.
// The checkpoint section measures CheckpointTo / RestoreFrom end to end
// (snapshot + serialize + CRC32C + atomic write, and the reverse).
//
// With --json out.json the measured reports/sec land in a flat JSON object
// (keys like "InpRR.wire_rps", "InpRR.engine1_wire_rps") — the bench's
// regression record (BENCH_ingest.json).
//
// The EM section decodes every selector of order <= k from an InpEM state
// absorbed from a skewed population (uniform rows would be EM's own
// prior), and reports EM iterations per second ("InpEM.em_iter_rps"): the
// snapshot-export stage's decode kernel, as a rate that smoke and quick
// runs share although their iteration counts differ.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/marginal.h"
#include "data/synthetic.h"
#include "engine/collector.h"
#include "protocols/factory.h"
#include "protocols/inp_em.h"
#include "protocols/wire.h"

namespace {

using ldpm::CreateProtocol;
using ldpm::ProtocolConfig;
using ldpm::ProtocolKind;
using ldpm::Report;
using ldpm::Rng;

/// Bitwise equality of two aggregators' accumulated state.
bool SameState(const ldpm::MarginalProtocol& a,
               const ldpm::MarginalProtocol& b) {
  const ldpm::AggregatorSnapshot x = a.Snapshot();
  const ldpm::AggregatorSnapshot y = b.Snapshot();
  const auto same_bits = [](double u, double v) {
    return std::bit_cast<uint64_t>(u) == std::bit_cast<uint64_t>(v);
  };
  return x.reports_absorbed == y.reports_absorbed &&
         same_bits(x.total_report_bits, y.total_report_bits) &&
         std::equal(x.reals.begin(), x.reals.end(), y.reals.begin(),
                    y.reals.end(), same_bits) &&
         x.counts == y.counts;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string Rate(double reports, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g/s", reports / seconds);
  return buf;
}

std::string Speedup(double base_seconds, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", base_seconds / seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const ldpm::bench::BenchArgs args = ldpm::bench::Parse(argc, argv);
  ldpm::bench::Banner("micro_engine",
                      "wire/sharded ingest vs per-report absorb", args);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  ldpm::bench::JsonWriter json;
  json.Add("bench", std::string("micro_engine"));
  json.Add("d", 12.0);
  json.Add("k", 2.0);
  json.Add("epsilon", 1.0);

  const int d = 12;
  const size_t batch = 8192;
  const std::vector<int> shard_counts = {1, 2, 4};

  // InpRR reports are 2^d bits, so its stream is kept smaller.
  const size_t dense_reports =
      args.smoke ? 3'000 : (args.full ? 200'000 : 40'000);
  const size_t sparse_reports =
      args.smoke ? 30'000 : (args.full ? 2'000'000 : 400'000);

  const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kInpRR, ProtocolKind::kInpHT, ProtocolKind::kMargPS,
      ProtocolKind::kInpEM};

  ProtocolConfig config;
  config.d = d;
  config.k = 2;
  config.epsilon = 1.0;

  std::printf("== absorb paths: per-report/parse vs wire (single "
              "aggregator) and engine wire ingest ==\n");
  ldpm::bench::Row({"protocol", "perreport", "parse", "wire", "eng 1shard",
                    "eng 2shard", "eng 4shard", "wire/parse"});
  for (ProtocolKind kind : kinds) {
    const std::string name(ldpm::ProtocolKindName(kind));
    std::vector<std::string> cells{name};
    const size_t num_reports =
        kind == ProtocolKind::kInpRR ? dense_reports : sparse_reports;

    // Pre-encode one shared report stream and its wire batch frames.
    auto encoder = CreateProtocol(kind, config);
    LDPM_CHECK(encoder.ok());
    Rng rng(args.seed);
    std::vector<Report> reports;
    reports.reserve(num_reports);
    const uint64_t mask = (uint64_t{1} << d) - 1;
    for (size_t i = 0; i < num_reports; ++i) {
      reports.push_back((*encoder)->Encode(rng() & mask, rng));
    }
    std::vector<std::vector<uint8_t>> frames;
    for (size_t begin = 0; begin < reports.size(); begin += batch) {
      const size_t end = std::min(begin + batch, reports.size());
      auto frame = ldpm::SerializeReportBatch(
          kind, config,
          std::vector<Report>(reports.begin() + begin, reports.begin() + end));
      LDPM_CHECK(frame.ok());
      frames.push_back(*std::move(frame));
    }

    // Per-report baseline: one virtual Absorb per report.
    auto perreport = CreateProtocol(kind, config);
    LDPM_CHECK(perreport.ok());
    auto start = std::chrono::steady_clock::now();
    for (const Report& r : reports) LDPM_CHECK((*perreport)->Absorb(r).ok());
    const double perreport_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_reports), perreport_seconds));
    json.Add(name + ".perreport_rps",
             static_cast<double>(num_reports) / perreport_seconds);

    // Naive wire ingest: parse every record into a Report, then Absorb.
    auto parse = CreateProtocol(kind, config);
    LDPM_CHECK(parse.ok());
    start = std::chrono::steady_clock::now();
    for (const std::vector<uint8_t>& frame : frames) {
      ldpm::WireBatchReader frame_reader(frame.data(), frame.size());
      const uint8_t* record = nullptr;
      size_t record_size = 0;
      while (frame_reader.Next(record, record_size)) {
        auto report = ldpm::DeserializeReport(kind, config, record, record_size);
        LDPM_CHECK(report.ok());
        LDPM_CHECK((*parse)->Absorb(*report).ok());
      }
      LDPM_CHECK(frame_reader.status().ok());
    }
    const double parse_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_reports), parse_seconds));
    json.Add(name + ".parse_rps",
             static_cast<double>(num_reports) / parse_seconds);

    // Zero-copy wire path over pre-serialized frames.
    auto wire = CreateProtocol(kind, config);
    LDPM_CHECK(wire.ok());
    start = std::chrono::steady_clock::now();
    for (const std::vector<uint8_t>& frame : frames) {
      LDPM_CHECK((*wire)->AbsorbWireBatch(frame.data(), frame.size()).ok());
    }
    const double wire_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_reports), wire_seconds));
    json.Add(name + ".wire_rps",
             static_cast<double>(num_reports) / wire_seconds);

    // All three paths must agree exactly.
    LDPM_CHECK((*perreport)->reports_absorbed() == num_reports);
    LDPM_CHECK(SameState(**perreport, **parse));
    LDPM_CHECK(SameState(**perreport, **wire));

    // Engine wire ingest at 1/2/4 shards, hosted as one collection of a
    // Collector.
    for (int shards : shard_counts) {
      ldpm::engine::CollectorOptions options;
      options.engine_defaults.num_shards = shards;
      auto collector = ldpm::engine::Collector::Create(options);
      LDPM_CHECK(collector.ok());
      auto handle = (*collector)->Register(name, kind, config);
      LDPM_CHECK(handle.ok());
      start = std::chrono::steady_clock::now();
      for (const std::vector<uint8_t>& frame : frames) {
        LDPM_CHECK(handle->IngestWireBatch(frame).ok());
      }
      LDPM_CHECK(handle->Flush().ok());
      const double engine_seconds = Seconds(start);
      cells.push_back(Rate(static_cast<double>(num_reports), engine_seconds));
      json.Add(name + ".engine" + std::to_string(shards) + "_wire_rps",
               static_cast<double>(num_reports) / engine_seconds);
      auto absorbed = handle->ReportsAbsorbed();
      LDPM_CHECK(absorbed.ok());
      LDPM_CHECK(*absorbed == num_reports);
    }
    cells.push_back(Speedup(parse_seconds, wire_seconds));
    json.Add(name + ".wire_speedup_vs_parse", parse_seconds / wire_seconds);
    json.Add(name + ".wire_speedup_vs_absorb", perreport_seconds / wire_seconds);
    ldpm::bench::Row(cells);
  }

  // EM decode: every selector of order <= k, as a snapshot export runs it,
  // over a skewed population's state. The sweep is repeated and the median
  // sweep reported.
  std::printf("\n== InpEM decode: every selector of order <= %d, %zu "
              "skewed reports ==\n",
              config.k, sparse_reports);
  {
    // Independent bits with biases spread over [0.1, 0.9]: skewed
    // marginals, far from EM's uniform prior.
    std::vector<double> bias;
    for (int j = 0; j < d; ++j) bias.push_back(0.1 + 0.8 * j / (d - 1));
    auto population = ldpm::GenerateIndependent(sparse_reports, bias,
                                                 args.seed + 5);
    LDPM_CHECK(population.ok());
    auto em_state = CreateProtocol(ProtocolKind::kInpEM, config);
    LDPM_CHECK(em_state.ok());
    Rng rng(args.seed + 6);
    LDPM_CHECK((*em_state)->AbsorbPopulation(population->rows(), rng).ok());
    const auto& em = dynamic_cast<const ldpm::InpEmProtocol&>(**em_state);
    const std::vector<uint64_t> selectors =
        ldpm::FullKWaySelectors(d, config.k);
    constexpr int kSweeps = 5;
    uint64_t iterations = 0;
    std::vector<double> sweep_seconds;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      iterations = 0;
      const auto start = std::chrono::steady_clock::now();
      for (uint64_t beta : selectors) {
        auto decoded = em.Decode(beta);
        LDPM_CHECK(decoded.ok());
        iterations += static_cast<uint64_t>(decoded->iterations);
      }
      sweep_seconds.push_back(Seconds(start));
    }
    std::sort(sweep_seconds.begin(), sweep_seconds.end());
    const double seconds = sweep_seconds[kSweeps / 2];
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.2f", seconds * 1e3);
    ldpm::bench::Row({"selectors", "EM iterations", "sweep ms", "iter/s"}, 16);
    ldpm::bench::Row({std::to_string(selectors.size()),
                      std::to_string(iterations), ms,
                      Rate(static_cast<double>(iterations), seconds)},
                     16);
    json.Add("InpEM.em_iter_rps", static_cast<double>(iterations) / seconds);
  }

  // Checkpoint/restore throughput: CheckpointTo is flush + per-shard
  // snapshot + serialize + CRC32C + atomic write-rename; RestoreFrom is
  // read + validate + stage + re-shard merge. Reported rates are file
  // bytes over wall time, so they fold the checksum and (de)serialization
  // costs into one number per direction.
  std::printf("\n== durable checkpoints: write / restore (4-shard engine) ==\n");
  ldpm::bench::Row({"protocol", "file KB", "write", "restore"}, 22);
  const std::string ckpt_path =
      (std::filesystem::temp_directory_path() / "ldpm_micro_engine.ckpt")
          .string();
  const size_t ckpt_iters = args.smoke ? 4 : 16;
  for (ProtocolKind kind : kinds) {
    const std::string name(ldpm::ProtocolKindName(kind));
    const size_t num_reports =
        (kind == ProtocolKind::kInpRR ? dense_reports : sparse_reports) / 4;
    auto encoder = CreateProtocol(kind, config);
    LDPM_CHECK(encoder.ok());
    Rng rng(args.seed + 3);
    std::vector<Report> reports;
    reports.reserve(num_reports);
    const uint64_t mask = (uint64_t{1} << d) - 1;
    for (size_t i = 0; i < num_reports; ++i) {
      reports.push_back((*encoder)->Encode(rng() & mask, rng));
    }
    ldpm::engine::CollectorOptions options;
    options.engine_defaults.num_shards = 4;
    auto collector = ldpm::engine::Collector::Create(options);
    LDPM_CHECK(collector.ok());
    auto handle = (*collector)->Register(name, kind, config);
    LDPM_CHECK(handle.ok());
    for (size_t begin = 0; begin < reports.size(); begin += batch) {
      const size_t end = std::min(begin + batch, reports.size());
      auto frame = ldpm::SerializeReportBatch(
          kind, config,
          std::vector<Report>(reports.begin() + begin, reports.begin() + end));
      LDPM_CHECK(frame.ok());
      LDPM_CHECK(handle->IngestWireBatch(*std::move(frame)).ok());
    }
    LDPM_CHECK(handle->Flush().ok());

    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < ckpt_iters; ++i) {
      LDPM_CHECK((*collector)->CheckpointTo(ckpt_path).ok());
    }
    const double write_seconds = Seconds(start) / ckpt_iters;
    const double file_bytes =
        static_cast<double>(std::filesystem::file_size(ckpt_path));

    auto restored = ldpm::engine::Collector::Create(options);
    LDPM_CHECK(restored.ok());
    auto restored_handle = (*restored)->Register(name, kind, config);
    LDPM_CHECK(restored_handle.ok());
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < ckpt_iters; ++i) {
      LDPM_CHECK((*restored)->RestoreFrom(ckpt_path).ok());
    }
    const double restore_seconds = Seconds(start) / ckpt_iters;
    auto restored_count = restored_handle->ReportsAbsorbed();
    LDPM_CHECK(restored_count.ok());
    LDPM_CHECK(*restored_count == num_reports);

    char file_kb[32];
    std::snprintf(file_kb, sizeof(file_kb), "%.1f", file_bytes / 1024.0);
    const double mb = file_bytes / (1024.0 * 1024.0);
    char write_cell[48], restore_cell[48];
    std::snprintf(write_cell, sizeof(write_cell), "%.0f us (%.0f MB/s)",
                  write_seconds * 1e6, mb / write_seconds);
    std::snprintf(restore_cell, sizeof(restore_cell), "%.0f us (%.0f MB/s)",
                  restore_seconds * 1e6, mb / restore_seconds);
    ldpm::bench::Row({name, file_kb, write_cell, restore_cell}, 22);
    json.Add(name + ".ckpt_bytes", file_bytes);
    json.Add(name + ".ckpt_write_mbps", mb / write_seconds);
    json.Add(name + ".ckpt_restore_mbps", mb / restore_seconds);
  }
  std::filesystem::remove(ckpt_path);

  // Multiplexed ingest: one interleaved collection-frame stream carrying
  // three protocol streams, routed by Collector::IngestFrames into each
  // collection's wire path (the one-socket-many-streams shape; one payload
  // copy per frame at routing).
  std::printf("\n== multiplexed collection-frame ingest (3 collections, "
              "2 shards each) ==\n");
  {
    const std::vector<ProtocolKind> mux_kinds = {
        ProtocolKind::kInpHT, ProtocolKind::kMargPS, ldpm::ProtocolKind::kInpES};
    const size_t mux_reports = sparse_reports / 2;
    ldpm::engine::CollectorOptions options;
    options.engine_defaults.num_shards = 2;
    auto collector = ldpm::engine::Collector::Create(options);
    LDPM_CHECK(collector.ok());
    std::vector<ldpm::engine::CollectionHandle> handles;
    // Per-collection frame queues, interleaved round-robin into one stream.
    std::vector<std::vector<uint8_t>> mux_frames;
    Rng rng(args.seed + 7);
    const uint64_t mask = (uint64_t{1} << d) - 1;
    for (ProtocolKind kind : mux_kinds) {
      const std::string id(ldpm::ProtocolKindName(kind));
      auto handle = (*collector)->Register(id, kind, config);
      LDPM_CHECK(handle.ok());
      handles.push_back(*std::move(handle));
      auto encoder = CreateProtocol(kind, config);
      LDPM_CHECK(encoder.ok());
      std::vector<Report> reports;
      reports.reserve(mux_reports);
      for (size_t i = 0; i < mux_reports; ++i) {
        reports.push_back((*encoder)->Encode(rng() & mask, rng));
      }
      for (size_t begin = 0; begin < reports.size(); begin += batch) {
        const size_t end = std::min(begin + batch, reports.size());
        auto frame = ldpm::SerializeReportBatch(
            kind, config,
            std::vector<Report>(reports.begin() + begin,
                                reports.begin() + end));
        LDPM_CHECK(frame.ok());
        std::vector<uint8_t> framed;
        LDPM_CHECK(ldpm::AppendCollectionFrame(id, *frame, framed).ok());
        mux_frames.push_back(std::move(framed));
      }
    }
    // Round-robin interleave across collections into one byte stream.
    std::vector<uint8_t> stream;
    const size_t frames_per_kind = mux_frames.size() / mux_kinds.size();
    for (size_t i = 0; i < frames_per_kind; ++i) {
      for (size_t kind_index = 0; kind_index < mux_kinds.size(); ++kind_index) {
        const auto& framed = mux_frames[kind_index * frames_per_kind + i];
        stream.insert(stream.end(), framed.begin(), framed.end());
      }
    }
    auto start = std::chrono::steady_clock::now();
    LDPM_CHECK((*collector)->IngestFrames(stream).ok());
    LDPM_CHECK((*collector)->Flush().ok());
    const double mux_seconds = Seconds(start);
    const double total_reports =
        static_cast<double>(mux_reports * mux_kinds.size());
    for (auto& handle : handles) {
      auto absorbed = handle.ReportsAbsorbed();
      LDPM_CHECK(absorbed.ok());
      LDPM_CHECK(*absorbed == mux_reports);
    }
    ldpm::bench::Row({"mux stream", Rate(total_reports, mux_seconds)}, 22);
    json.Add("mux3.frame_rps", total_reports / mux_seconds);
    json.Add("mux3.stream_bytes", static_cast<double>(stream.size()));
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
