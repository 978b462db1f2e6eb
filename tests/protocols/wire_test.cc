#include "protocols/wire.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace ldpm {
namespace {

ProtocolConfig Config(int d, int k) {
  ProtocolConfig c;
  c.d = d;
  c.k = k;
  c.epsilon = 1.0;
  return c;
}

TEST(Wire, BitCountsMatchTable2) {
  const ProtocolConfig c = Config(8, 2);
  EXPECT_EQ(*WireBits(ProtocolKind::kInpRR, c), 256u);
  EXPECT_EQ(*WireBits(ProtocolKind::kInpPS, c), 8u);
  EXPECT_EQ(*WireBits(ProtocolKind::kInpHT, c), 9u);
  EXPECT_EQ(*WireBits(ProtocolKind::kMargRR, c), 12u);
  EXPECT_EQ(*WireBits(ProtocolKind::kMargPS, c), 10u);
  EXPECT_EQ(*WireBits(ProtocolKind::kMargHT, c), 11u);
  EXPECT_EQ(*WireBits(ProtocolKind::kInpEM, c), 8u);
}

TEST(Wire, WireBitsMatchProtocolTheoretical) {
  const ProtocolConfig c = Config(10, 3);
  for (ProtocolKind kind : RegisteredProtocolKinds()) {
    auto p = CreateProtocol(kind, c);
    ASSERT_TRUE(p.ok());
    auto bits = WireBits(kind, c);
    ASSERT_TRUE(bits.ok());
    EXPECT_DOUBLE_EQ(static_cast<double>(*bits),
                     (*p)->TheoreticalBitsPerUser())
        << ProtocolKindName(kind);
  }
}

class WireRoundTripTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(WireRoundTripTest, EncodeSerializeDeserializeAbsorb) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = Config(6, 2);
  auto sender = CreateProtocol(kind, config);
  auto receiver = CreateProtocol(kind, config);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(receiver.ok());
  Rng rng(100);
  for (int i = 0; i < 300; ++i) {
    const uint64_t value = rng.UniformInt(64);
    const Report original = (*sender)->Encode(value, rng);
    auto bytes = SerializeReport(kind, config, original);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    // Size is exactly ceil(bits / 8).
    EXPECT_EQ(bytes->size(), (*WireBits(kind, config) + 7) / 8);

    auto parsed = DeserializeReport(kind, config, *bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->selector, original.selector);
    EXPECT_EQ(parsed->value, original.value);
    if (original.sign != 0) {
      EXPECT_EQ(parsed->sign, original.sign);
    }
    EXPECT_EQ(parsed->ones, original.ones);

    // The parsed report must be accepted by a fresh aggregator.
    ASSERT_TRUE((*receiver)->Absorb(*parsed).ok());
  }
  EXPECT_EQ((*receiver)->reports_absorbed(), 300u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, WireRoundTripTest,
    ::testing::Values(ProtocolKind::kInpRR, ProtocolKind::kInpPS,
                      ProtocolKind::kInpHT, ProtocolKind::kMargRR,
                      ProtocolKind::kMargPS, ProtocolKind::kMargHT,
                      ProtocolKind::kInpEM, ProtocolKind::kInpES),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

TEST(Wire, DeserializeRejectsTruncatedBuffersForEveryKind) {
  // Every protocol kind, several configs: a buffer one byte short, one byte
  // long, or empty must be rejected, and the exact length must parse.
  for (const auto& [d, k] : std::vector<std::pair<int, int>>{
           {4, 2}, {6, 3}, {10, 2}}) {
    const ProtocolConfig config = Config(d, k);
    for (ProtocolKind kind : RegisteredProtocolKinds()) {
      auto protocol = CreateProtocol(kind, config);
      ASSERT_TRUE(protocol.ok());
      Rng rng(77);
      const Report report =
          (*protocol)->Encode(rng.UniformInt(uint64_t{1} << d), rng);
      auto bytes = SerializeReport(kind, config, report);
      ASSERT_TRUE(bytes.ok()) << ProtocolKindName(kind);

      EXPECT_TRUE(DeserializeReport(kind, config, *bytes).ok())
          << ProtocolKindName(kind);
      EXPECT_FALSE(
          DeserializeReport(kind, config, std::vector<uint8_t>()).ok())
          << ProtocolKindName(kind);

      std::vector<uint8_t> truncated(*bytes);
      truncated.pop_back();
      EXPECT_FALSE(DeserializeReport(kind, config, truncated).ok())
          << ProtocolKindName(kind) << " d=" << d << " k=" << k;

      std::vector<uint8_t> oversized(*bytes);
      oversized.push_back(0);
      EXPECT_FALSE(DeserializeReport(kind, config, oversized).ok())
          << ProtocolKindName(kind) << " d=" << d << " k=" << k;
    }
  }
}

TEST(Wire, RandomizedRoundTripAcrossConfigs) {
  // Randomized reports for every kind across a sweep of (d, k) shapes; the
  // parse must reproduce the report field-for-field.
  for (const auto& [d, k] : std::vector<std::pair<int, int>>{
           {3, 1}, {5, 3}, {9, 4}, {12, 2}}) {
    const ProtocolConfig config = Config(d, k);
    for (ProtocolKind kind : RegisteredProtocolKinds()) {
      auto protocol = CreateProtocol(kind, config);
      ASSERT_TRUE(protocol.ok()) << ProtocolKindName(kind);
      Rng rng(1000 + d);
      for (int i = 0; i < 50; ++i) {
        const Report original =
            (*protocol)->Encode(rng.UniformInt(uint64_t{1} << d), rng);
        auto bytes = SerializeReport(kind, config, original);
        ASSERT_TRUE(bytes.ok()) << ProtocolKindName(kind);
        auto parsed = DeserializeReport(kind, config, *bytes);
        ASSERT_TRUE(parsed.ok()) << ProtocolKindName(kind);
        EXPECT_EQ(parsed->selector, original.selector);
        EXPECT_EQ(parsed->value, original.value);
        EXPECT_EQ(parsed->ones, original.ones);
        if (original.sign != 0) EXPECT_EQ(parsed->sign, original.sign);
        EXPECT_DOUBLE_EQ(parsed->bits, original.bits);
      }
    }
  }
}

TEST(Wire, DeserializeRejectsWrongLength) {
  const ProtocolConfig config = Config(6, 2);
  const std::vector<uint8_t> short_buffer = {0x00};
  EXPECT_FALSE(
      DeserializeReport(ProtocolKind::kInpRR, config, short_buffer).ok());
  const std::vector<uint8_t> long_buffer(100, 0x00);
  EXPECT_FALSE(
      DeserializeReport(ProtocolKind::kInpHT, config, long_buffer).ok());
}

TEST(Wire, SerializeRejectsMalformedReports) {
  const ProtocolConfig config = Config(4, 2);
  Report bad_pos;
  bad_pos.ones = {100};
  EXPECT_FALSE(SerializeReport(ProtocolKind::kInpRR, config, bad_pos).ok());
  Report bad_sign;
  bad_sign.selector = 0b11;
  bad_sign.sign = 0;
  EXPECT_FALSE(SerializeReport(ProtocolKind::kInpHT, config, bad_sign).ok());
  Report bad_value;
  bad_value.value = 16;
  EXPECT_FALSE(SerializeReport(ProtocolKind::kInpPS, config, bad_value).ok());

  // A selector wider than d bits, or a marginal cell wider than k bits,
  // would lose its high bits on the wire and arrive as another, valid
  // report: MargPS {0b11, cell 5} at k = 2 as cell 1, and an InpHT alpha
  // with bit 6 set at d = 6 as alpha = 1.
  const ProtocolConfig d6 = Config(6, 2);
  Report wide_selector;
  wide_selector.selector = 0b1000011;
  wide_selector.sign = 1;
  for (ProtocolKind kind : {ProtocolKind::kInpHT, ProtocolKind::kMargRR,
                            ProtocolKind::kMargPS, ProtocolKind::kMargHT}) {
    EXPECT_FALSE(SerializeReport(kind, d6, wide_selector).ok())
        << ProtocolKindName(kind);
  }
  Report wide_alpha;
  wide_alpha.selector = 0b1000001;
  wide_alpha.sign = 1;
  EXPECT_FALSE(SerializeReport(ProtocolKind::kInpHT, d6, wide_alpha).ok());
  Report wide_cell;
  wide_cell.selector = 0b11;
  wide_cell.value = 5;
  wide_cell.sign = 1;
  EXPECT_FALSE(SerializeReport(ProtocolKind::kMargPS, d6, wide_cell).ok());
  EXPECT_FALSE(SerializeReport(ProtocolKind::kMargHT, d6, wide_cell).ok());

  // A bitmap carries each position once and in order, so repeated or
  // descending positions have no wire form.
  for (const std::vector<uint64_t>& ones :
       {std::vector<uint64_t>{1, 1}, std::vector<uint64_t>{2, 1}}) {
    Report bitmap;
    bitmap.selector = 0b11;
    bitmap.ones = ones;
    EXPECT_FALSE(SerializeReport(ProtocolKind::kInpRR, d6, bitmap).ok());
    EXPECT_FALSE(SerializeReport(ProtocolKind::kMargRR, d6, bitmap).ok());
  }
}

// Absorb takes PRR-style positions only strictly ascending, as Encode and
// DeserializeReport emit them: ones = {1, 1} would add 2 to one cell,
// where the same report's wire bitmap adds 1.
TEST(Wire, AbsorbRejectsPositionsABitmapCannotCarry) {
  const ProtocolConfig config = Config(4, 2);
  for (ProtocolKind kind : {ProtocolKind::kInpRR, ProtocolKind::kMargRR}) {
    SCOPED_TRACE(std::string(ProtocolKindName(kind)));
    auto protocol = CreateProtocol(kind, config);
    ASSERT_TRUE(protocol.ok());
    Report report;
    report.selector = 0b11;
    for (const std::vector<uint64_t>& ones :
         {std::vector<uint64_t>{1, 1}, std::vector<uint64_t>{2, 1}}) {
      report.ones = ones;
      EXPECT_EQ((*protocol)->Absorb(report).code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ((*protocol)->reports_absorbed(), 0u);
    report.ones = {1, 2};
    EXPECT_TRUE((*protocol)->Absorb(report).ok());
  }
}

TEST(Wire, CorruptedBytesRejectedByAggregator) {
  // Flip selector bits so the parsed report lands outside the k-way set;
  // the aggregator must reject rather than corrupt state.
  const ProtocolConfig config = Config(6, 2);
  auto protocol = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(protocol.ok());
  Rng rng(7);
  const Report report = (*protocol)->Encode(5, rng);
  auto bytes = SerializeReport(ProtocolKind::kMargPS, config, report);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[0] = 0xFF;  // selector becomes a 6-bit all-ones mask (order 6)
  auto parsed = DeserializeReport(ProtocolKind::kMargPS, config, *bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE((*protocol)->Absorb(*parsed).ok());
  EXPECT_EQ((*protocol)->reports_absorbed(), 0u);
}

TEST(Wire, EndToEndThroughWireMatchesDirectPath) {
  // A full population shipped through the wire format reconstructs the
  // same marginals as the in-memory path.
  const ProtocolConfig config = Config(5, 2);
  auto direct = CreateProtocol(ProtocolKind::kInpHT, config);
  auto via_wire = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_wire.ok());
  const auto rows = test::SkewedRows(5, 50000, 9);
  Rng rng_a(10), rng_b(10);  // same seed: identical reports
  for (uint64_t row : rows) {
    const Report r1 = (*direct)->Encode(row, rng_a);
    ASSERT_TRUE((*direct)->Absorb(r1).ok());
    const Report r2 = (*via_wire)->Encode(row, rng_b);
    auto bytes = SerializeReport(ProtocolKind::kInpHT, config, r2);
    ASSERT_TRUE(bytes.ok());
    auto parsed = DeserializeReport(ProtocolKind::kInpHT, config, *bytes);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE((*via_wire)->Absorb(*parsed).ok());
  }
  auto m1 = (*direct)->EstimateMarginal(0b00011);
  auto m2 = (*via_wire)->EstimateMarginal(0b00011);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  for (uint64_t i = 0; i < m1->size(); ++i) {
    EXPECT_DOUBLE_EQ(m1->at_compact(i), m2->at_compact(i));
  }
}

TEST(Wire, BatchReaderRejectsHostileLengthPrefixWithoutWrapping) {
  // Exact bytes: one valid 2-byte record, then a record whose u32 length
  // prefix claims 0xFFFFFFFF bytes with only 2 present. The reader must
  // stop with a truncation error anchored at the second record's length
  // prefix (byte 6) — never wrap the cursor or walk past the buffer.
  const uint8_t batch[] = {0x02, 0x00, 0x00, 0x00, 0xAA, 0xBB,
                           0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02};
  WireBatchReader reader(batch, sizeof(batch));
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  ASSERT_TRUE(reader.Next(record, record_size));
  EXPECT_EQ(record_size, 2u);
  EXPECT_EQ(record, batch + 4);
  ASSERT_FALSE(reader.Next(record, record_size));
  ASSERT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find(
                "truncated record payload at byte 6"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(Wire, BatchReaderRejectsTruncatedLengthPrefix) {
  // A 3-byte tail cannot hold the u32 length prefix itself.
  const uint8_t batch[] = {0x01, 0x00, 0x00};
  WireBatchReader reader(batch, sizeof(batch));
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  ASSERT_FALSE(reader.Next(record, record_size));
  ASSERT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find("record length prefix"),
            std::string::npos)
      << reader.status().ToString();
}

}  // namespace
}  // namespace ldpm
