// Seed-corpus generator for the fuzz harnesses.
//
//   gen_seeds <repo>/tests/fuzz
//
// Writes two trees under the given root:
//
//   corpus/<harness>/       seeds produced by the real encoders, so the
//                           fuzzer starts from deep inside the accepted
//                           input set instead of random bytes
//   regressions/<harness>/  exact byte strings for bugs this subsystem
//                           was built to catch (hostile length prefixes,
//                           wrapping array lengths, truncated records);
//                           replayed by the fuzz_corpus_replay_* ctest
//                           targets on every build
//
// Deterministic by construction (fixed RNG seeds), so regenerating after
// an encoder change yields a reviewable diff.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/random.h"
#include "engine/checkpoint.h"
#include "net/protocol.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace {

namespace fs = std::filesystem;

fs::path g_root;

void WriteSeed(const std::string& harness, const std::string& tree,
               const std::string& name, const std::vector<uint8_t>& bytes) {
  const fs::path dir = g_root / tree / harness;
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed writing %s\n", (dir / name).c_str());
    std::exit(1);
  }
}

void Corpus(const std::string& harness, const std::string& name,
            const std::vector<uint8_t>& bytes) {
  WriteSeed(harness, "corpus", name, bytes);
}

void Regression(const std::string& harness, const std::string& name,
                const std::vector<uint8_t>& bytes) {
  WriteSeed(harness, "regressions", name, bytes);
}

std::vector<uint8_t> Bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<uint8_t>(v >> (8 * b)));
}

/// A batch of `count` real reports for (kind, d), as wire-batch bytes.
std::vector<uint8_t> RealBatch(ldpm::ProtocolKind kind, int d, uint64_t seed,
                               uint64_t count = 4) {
  ldpm::ProtocolConfig config;
  config.d = d;
  config.k = 2;
  config.epsilon = 1.0;
  auto protocol = ldpm::CreateProtocol(kind, config);
  if (!protocol.ok()) return {};
  ldpm::Rng rng(seed);
  std::vector<ldpm::Report> reports;
  for (uint64_t cell = 0; cell < count; ++cell) {
    reports.push_back((*protocol)->Encode(cell % (uint64_t{1} << d), rng));
  }
  auto batch = ldpm::SerializeReportBatch(kind, config, reports);
  return batch.ok() ? *batch : std::vector<uint8_t>{};
}

void CollectionFrameSeeds() {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> batch =
      RealBatch(ldpm::ProtocolKind::kMargHT, 6, 17);
  (void)ldpm::AppendCollectionFrame("metrics", batch, stream);
  (void)ldpm::AppendCollectionFrame("clicks", std::vector<uint8_t>{}, stream);
  (void)ldpm::AppendCollectionFrame("a", {0xDE, 0xAD}, stream);
  Corpus("collection_frames", "three_frames", stream);
  Corpus("collection_frames", "truncated_tail",
         std::vector<uint8_t>(stream.begin(), stream.end() - 3));

  // The 32-bit wrap shape: id 'x', payload length 0xFFFFFFFF, no payload
  // (2 + 1 + 4 + 0xFFFFFFFF wraps to 6 in 32-bit size arithmetic).
  Regression("collection_frames", "payload_len_wrap",
             {0x01, 0x00, 'x', 0xFF, 0xFF, 0xFF, 0xFF});
  // Empty collection id: the one violation more bytes can never repair.
  Regression("collection_frames", "empty_id", {0x00, 0x00, 0x01, 0x02});
  // Max id length with a short tail: must read as incomplete, not over.
  Regression("collection_frames", "id_len_over_tail",
             {0xFF, 0xFF, 'a', 'b', 'c'});
}

void WireBatchSeeds() {
  // Harness layout: [kind byte][d byte][wire batch bytes].
  const struct {
    ldpm::ProtocolKind kind;
    uint8_t kind_byte;
  } kinds[] = {
      {ldpm::ProtocolKind::kInpRR, 0},  {ldpm::ProtocolKind::kInpPS, 1},
      {ldpm::ProtocolKind::kInpHT, 2},  {ldpm::ProtocolKind::kMargRR, 3},
      {ldpm::ProtocolKind::kMargPS, 4}, {ldpm::ProtocolKind::kMargHT, 5},
      {ldpm::ProtocolKind::kInpEM, 6},  {ldpm::ProtocolKind::kInpES, 7},
  };
  for (const auto& [kind, kind_byte] : kinds) {
    // d byte 5 -> TakeInRange(1, 12) lands on 6; keep them in sync.
    std::vector<uint8_t> seed = {kind_byte, 5};
    const std::vector<uint8_t> batch = RealBatch(kind, 6, 23 + kind_byte);
    seed.insert(seed.end(), batch.begin(), batch.end());
    Corpus("wire_batch",
           "batch_" + std::string(ldpm::ProtocolKindName(kind)), seed);
  }
  // 600 InpRR records cross two of its 240-record wire absorb groups
  // (d byte 2 -> d = 3, 1-byte bitmaps).
  std::vector<uint8_t> groups = {0, 2};
  const std::vector<uint8_t> many =
      RealBatch(ldpm::ProtocolKind::kInpRR, 3, 29, 600);
  groups.insert(groups.end(), many.begin(), many.end());
  Corpus("wire_batch", "batch_InpRR_groups", groups);
  // InpRR at d = 1 (k = 2 > d: the absorb check must still build an
  // aggregator), with the padding bits above the 2-bit bitmap set.
  Regression("wire_batch", "inprr_d1_padding",
             {0, 0, 0x01, 0x00, 0x00, 0x00, 0xFF, 0x01, 0x00, 0x00, 0x00,
              0xFE});
  // Record length prefix 0xFFFFFFFF with two payload bytes behind it.
  Regression("wire_batch", "record_len_hostile",
             {0, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02});
  // Truncated length prefix at end of batch.
  Regression("wire_batch", "short_len_prefix", {2, 5, 0x01, 0x00, 0x00});
}

/// A wire_roundtrip input: `kind` at `d` and epsilon 1, one valid round,
/// then the fields of the hostile report (selector, value, sign, and the
/// positions as u16s).
std::vector<uint8_t> HostileReport(ldpm::ProtocolKind kind, int d,
                                   uint64_t selector, uint64_t value, int sign,
                                   const std::vector<uint16_t>& ones) {
  const auto& kinds = ldpm::RegisteredProtocolKinds();
  const auto index = std::find(kinds.begin(), kinds.end(), kind) - kinds.begin();
  std::vector<uint8_t> input = {static_cast<uint8_t>(index),
                                static_cast<uint8_t>(d - 1), 7};
  PutU64(input, 1);    // Rng seed
  input.push_back(0);  // one valid round...
  PutU64(input, 0);    // ...encoding cell 0
  PutU64(input, selector);
  PutU64(input, value);
  input.push_back(static_cast<uint8_t>(sign + 1));
  input.push_back(static_cast<uint8_t>(ones.size()));
  for (uint16_t pos : ones) {
    input.push_back(static_cast<uint8_t>(pos));
    input.push_back(static_cast<uint8_t>(pos >> 8));
  }
  return input;
}

void WireRoundtripSeeds() {
  for (uint8_t kind = 0; kind < 8; ++kind) {
    Corpus("wire_roundtrip", "kind_" + std::to_string(kind),
           {kind, 5, 0x39, 0x05, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x01,
            0x02, 0x03});
  }
  // d at the registration cap with an all-ones seed: the widest encodes
  // every protocol emits, pinned so round-trip equality stays byte-exact.
  Regression("wire_roundtrip", "max_domain_bits",
             {3, 12, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
              0xFF, 0xFF, 0xFF});
  // Reports Absorb refuses that a truncating serializer turned into other,
  // valid reports, and a position list whose bitmap counts a repeat once.
  Regression("wire_roundtrip", "margps_cell_wider_than_k",
             HostileReport(ldpm::ProtocolKind::kMargPS, 4, 0b11, 5, 0, {}));
  Regression("wire_roundtrip", "inpht_alpha_wider_than_d",
             HostileReport(ldpm::ProtocolKind::kInpHT, 6, 0b1000001, 0, 1, {}));
  Regression("wire_roundtrip", "inprr_repeated_position",
             HostileReport(ldpm::ProtocolKind::kInpRR, 3, 0, 0, 0, {1, 1}));
}

std::vector<ldpm::AggregatorSnapshot> SampleSnapshots() {
  ldpm::AggregatorSnapshot snapshot;
  snapshot.protocol = "MargHT";
  snapshot.d = 6;
  snapshot.k = 2;
  snapshot.epsilon = 1.0;
  snapshot.reports_absorbed = 12;
  snapshot.total_report_bits = 108.0;
  snapshot.reals = {1.5, -2.25, 0.0, 3.0};
  snapshot.counts = {4, 8};
  return {snapshot};
}

void CheckpointSeeds() {
  // Harness layout: [mode byte][container image]. Mode 0 = in-memory
  // decoders, mode 1 = file-based fallback/quarantine walk.
  auto v2 = ldpm::engine::EncodeCollectorCheckpoint(
      {{std::string("metrics"), SampleSnapshots()}});
  if (!v2.ok()) {
    std::fprintf(stderr, "checkpoint seed encoding failed\n");
    std::exit(1);
  }
  for (const uint8_t mode : {uint8_t{0}, uint8_t{1}}) {
    std::vector<uint8_t> v2_seed = {mode};
    v2_seed.insert(v2_seed.end(), v2->begin(), v2->end());
    Corpus("checkpoint", "v2_mode" + std::to_string(mode), v2_seed);
  }

  // The u64 wrap: reals length 0x2000000000000001, whose *8 wraps to 8.
  std::vector<uint8_t> payload = {0x00};  // mode 0: in-memory decode
  const std::vector<uint8_t> snap =
      ldpm::engine::SerializeSnapshot({.protocol = "x"});
  payload.insert(payload.end(), snap.begin(), snap.end());
  const size_t reals_len_at = 1 + 4 + 1 + 4 + 4 + 8 + 4 + 8 + 8;
  const uint8_t wrap_len[8] = {0x01, 0, 0, 0, 0, 0, 0, 0x20};
  for (int i = 0; i < 8; ++i) payload[reals_len_at + i] = wrap_len[i];
  payload.insert(payload.end(), 8, 0x00);
  Regression("checkpoint", "reals_len_wrap", payload);

  // An image with one flipped payload byte: CRC must catch it in both
  // modes (mode 1 additionally walks the quarantine rename).
  for (const uint8_t mode : {uint8_t{0}, uint8_t{1}}) {
    std::vector<uint8_t> corrupt = {mode};
    corrupt.insert(corrupt.end(), v2->begin(), v2->end());
    // Past the header and the 17-byte "metrics" block header, inside the
    // first record's payload (which starts at image offset 41).
    corrupt[1 + 48] ^= 0x40;
    Regression("checkpoint", "crc_flip_mode" + std::to_string(mode), corrupt);
  }
  // Truncated header.
  Regression("checkpoint", "short_header",
             {0x00, 'L', 'D', 'P', 'M', 'C', 'K'});
}

void CheckpointRoundtripSeeds() {
  Corpus("checkpoint_roundtrip", "two_snapshots",
         {2, 6, 'M', 'a', 'r', 'g', 'H', 'T', 6, 2, 0, 0, 0, 0, 0, 0, 0xF0,
          0x3F, 1, 1, 0, 12, 0, 0, 0, 0, 0, 0, 0, 4, 1, 2, 3, 4, 5, 6, 7, 8,
          2, 9, 9, 9, 9, 9, 9, 9, 9, 1});
  // NaN payloads (all-ones doubles) must round-trip bitwise.
  std::vector<uint8_t> nan_seed = {1, 2, 'x', 'y', 10, 3};
  nan_seed.insert(nan_seed.end(), 48, 0xFF);
  Regression("checkpoint_roundtrip", "nan_doubles", nan_seed);
}

void HttpRequestSeeds() {
  Corpus("http_request", "marginal_query",
         Bytes("GET /v1/marginal?collection=metrics&attrs=0,2 HTTP/1.1\r\n"
               "Host: localhost\r\n\r\n"));
  Corpus("http_request", "stats", Bytes("GET /stats HTTP/1.1\r\n\r\n"));
  Corpus("http_request", "post", Bytes("POST /v1/x HTTP/1.1\r\n\r\n"));
  // Three pipelined heads as one connection's stream: keep-alive, an LF-only
  // head, and a Connection: close among other tokens; then a partial head.
  Corpus("http_request", "pipelined_heads",
         Bytes("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
               "GET /v1/collections HTTP/1.1\n\n"
               "GET /metrics HTTP/1.1\r\nconnection: Upgrade, Close\r\n\r\n"
               "GET /v1/model?collection=c HTTP/1.0\r\n"));
  // A body the server never reads, shaped like a second request: the
  // Content-Length must end keep-alive so the body is not framed as a head.
  Corpus("http_request", "body_shaped_like_a_head",
         Bytes("POST /x HTTP/1.1\r\nContent-Length: 28\r\n\r\n"
               "GET /y HTTP/1.1\r\nHost: x\r\n\r\n"));
  Regression("http_request", "bare_question_mark",
             Bytes("GET ? HTTP/1.1\r\n\r\n"));
  Regression("http_request", "no_version", Bytes("GET /\r\n\r\n"));
  Regression("http_request", "empty_pairs", Bytes("GET /p?&&=&k&=v H\r\n\r\n"));
}

void ReplyStreamSeeds() {
  // Harness layout: [chunk seed byte][reply records].
  std::vector<uint8_t> ok_stream = {7};
  ok_stream.push_back(ldpm::net::kReplyAck);
  PutU64(ok_stream, 512);
  ok_stream.push_back(ldpm::net::kReplyOk);
  PutU64(ok_stream, 3);
  PutU64(ok_stream, 512);
  Corpus("reply_stream", "acks_then_ok", ok_stream);

  std::vector<uint8_t> err_stream = {9};
  err_stream.push_back(ldpm::net::kReplyError);
  PutU64(err_stream, 64);
  const std::string message = "unknown collection \"nope\"";
  err_stream.push_back(static_cast<uint8_t>(message.size()));
  err_stream.push_back(0);
  err_stream.insert(err_stream.end(), message.begin(), message.end());
  Corpus("reply_stream", "error_reply", err_stream);

  // A whole session's records: the hello, acks, the final ok.
  std::vector<uint8_t> session = {11};
  session.push_back(ldpm::net::kReplyHello);
  PutU64(session, 128);
  session.push_back(ldpm::net::kReplyAck);
  PutU64(session, 256);
  session.push_back(ldpm::net::kReplyAck);
  PutU64(session, 384);
  session.push_back(ldpm::net::kReplyOk);
  PutU64(session, 6);
  PutU64(session, 384);
  Corpus("reply_stream", "hello_acks_ok", session);

  // Unknown code mid-stream poisons at an exact offset.
  std::vector<uint8_t> poison = {3};
  poison.push_back(ldpm::net::kReplyAck);
  PutU64(poison, 9);
  poison.push_back(0x7F);
  Regression("reply_stream", "unknown_code", poison);
  // Error record claiming a 100-byte message with 10 bytes behind it.
  std::vector<uint8_t> short_err = {5, ldpm::net::kReplyError};
  PutU64(short_err, 0);
  short_err.push_back(100);
  short_err.push_back(0);
  short_err.insert(short_err.end(), 10, 'x');
  Regression("reply_stream", "truncated_error_body", short_err);
  // A hello is accepted only as the first record: after an ack it poisons.
  // Chunk seed 5 cuts the stream right before the hello, so a position
  // check made per Feed instead of per stream shows as a decode mismatch.
  std::vector<uint8_t> late_hello = {5, ldpm::net::kReplyAck};
  PutU64(late_hello, 9);
  late_hello.push_back(ldpm::net::kReplyHello);
  PutU64(late_hello, 0);
  Regression("reply_stream", "hello_after_ack", late_hello);
}

void FailpointSeeds() {
  Corpus("failpoint_spec", "mixed",
         Bytes("fp.a=error;fp.b=error(NotFound)*2+1;fp.c=delay(5)"));
  Corpus("failpoint_spec", "abort_stored", Bytes("fp.d=abort*1"));
  // std::atoi was UB on these; they must parse-fail cleanly now.
  Regression("failpoint_spec", "overflow_count",
             Bytes("s=error*99999999999999999999"));
  Regression("failpoint_spec", "garbage_numbers",
             Bytes("s=error*zz+--;t=delay(1e9)"));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <repo>/tests/fuzz\n", argv[0]);
    return 2;
  }
  g_root = argv[1];
  CollectionFrameSeeds();
  WireBatchSeeds();
  WireRoundtripSeeds();
  CheckpointSeeds();
  CheckpointRoundtripSeeds();
  HttpRequestSeeds();
  ReplyStreamSeeds();
  FailpointSeeds();
  std::printf("seeds written under %s\n", g_root.c_str());
  return 0;
}
