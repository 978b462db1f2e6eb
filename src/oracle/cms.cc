#include "oracle/cms.h"

#include <algorithm>
#include <bit>
#include <string>

#include "core/hadamard.h"
#include "core/marginal.h"

namespace ldpm {

InpHtCmsProtocol::InpHtCmsProtocol(const ProtocolConfig& config,
                                   const CmsParams& params,
                                   RandomizedResponse rr,
                                   std::vector<ThreeWiseHash> hashes)
    : MarginalProtocol(config),
      params_(params),
      rr_(rr),
      hashes_(std::move(hashes)) {
  sign_sums_.assign(params_.num_hashes,
                    std::vector<double>(params_.width, 0.0));
}

StatusOr<std::unique_ptr<InpHtCmsProtocol>> InpHtCmsProtocol::Create(
    const ProtocolConfig& config, const CmsParams& params,
    uint64_t hash_seed) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (config.d > kMaxDenseDimensions) {
    return Status::InvalidArgument("InpHTCMS: d exceeds the dense-table limit");
  }
  if (params.num_hashes < 1) {
    return Status::InvalidArgument("InpHTCMS: need at least one hash");
  }
  if (params.width < 2 ||
      !std::has_single_bit(static_cast<uint64_t>(params.width))) {
    return Status::InvalidArgument(
        "InpHTCMS: width must be a power of two >= 2");
  }
  auto rr = RandomizedResponse::FromEpsilon(config.epsilon);
  if (!rr.ok()) return rr.status();

  Rng hash_rng(hash_seed);
  std::vector<ThreeWiseHash> hashes;
  hashes.reserve(params.num_hashes);
  for (int l = 0; l < params.num_hashes; ++l) {
    auto h = ThreeWiseHash::Random(static_cast<uint64_t>(params.width),
                                   hash_rng);
    if (!h.ok()) return h.status();
    hashes.push_back(*h);
  }
  return std::unique_ptr<InpHtCmsProtocol>(
      new InpHtCmsProtocol(config, params, *rr, std::move(hashes)));
}

Report InpHtCmsProtocol::Encode(uint64_t user_value, Rng& rng) const {
  LDPM_DCHECK(user_value < (uint64_t{1} << config_.d));
  Report report;
  const uint64_t l = rng.UniformInt(hashes_.size());
  const uint64_t m = rng.UniformInt(static_cast<uint64_t>(params_.width));
  const uint64_t v = hashes_[l](user_value);
  report.selector = l;
  report.value = m;
  report.sign = rr_.PerturbSign(HadamardSignInt(v, m), rng);
  report.bits = TheoreticalBitsPerUser();
  return report;
}

Status InpHtCmsProtocol::Absorb(const Report& report) {
  if (report.selector >= hashes_.size() ||
      report.value >= static_cast<uint64_t>(params_.width)) {
    return Status::InvalidArgument("InpHTCMS::Absorb: report outside sketch");
  }
  if (report.sign != -1 && report.sign != 1) {
    return Status::InvalidArgument("InpHTCMS::Absorb: sign must be -1 or +1");
  }
  sign_sums_[report.selector][report.value] +=
      static_cast<double>(report.sign);
  decoded_ = false;
  NoteAbsorbed(report);
  return Status::OK();
}

Status InpHtCmsProtocol::EnsureDecoded() const {
  if (decoded_) return Status::OK();
  if (reports_absorbed() == 0) {
    return Status::FailedPrecondition("InpHTCMS: no reports absorbed");
  }
  // Horvitz-Thompson unbiasing of each row coefficient followed by the
  // inverse transform back to bucket counts: every user contributes to a
  // uniformly random (row, coefficient) pair, so the scaling is g*w.
  const double g = static_cast<double>(params_.num_hashes);
  const double w = static_cast<double>(params_.width);
  const double scale = g * w / (2.0 * rr_.keep_probability() - 1.0);
  rows_.assign(params_.num_hashes, std::vector<double>(params_.width, 0.0));
  for (int l = 0; l < params_.num_hashes; ++l) {
    for (int m = 0; m < params_.width; ++m) {
      rows_[l][m] = sign_sums_[l][m] * scale;
    }
    InverseFastWalshHadamard(rows_[l]);
  }
  decoded_ = true;
  return Status::OK();
}

StatusOr<double> InpHtCmsProtocol::EstimateFrequency(uint64_t value) const {
  if (value >= (uint64_t{1} << config_.d)) {
    return Status::OutOfRange("InpHTCMS: value outside domain");
  }
  LDPM_RETURN_IF_ERROR(EnsureDecoded());
  const double n = static_cast<double>(reports_absorbed());
  const double w = static_cast<double>(params_.width);
  double mean = 0.0;
  for (size_t l = 0; l < hashes_.size(); ++l) {
    mean += rows_[l][hashes_[l](value)];
  }
  mean /= static_cast<double>(hashes_.size());
  // Count-mean-sketch debiasing: collisions add (N - n_x)/w in expectation.
  const double count = (mean - n / w) * (w / (w - 1.0));
  return count / n;
}

StatusOr<MarginalTable> InpHtCmsProtocol::EstimateMarginal(
    uint64_t beta) const {
  const uint64_t domain = uint64_t{1} << config_.d;
  if (beta >= domain) {
    return Status::OutOfRange("InpHTCMS: beta outside domain");
  }
  LDPM_RETURN_IF_ERROR(EnsureDecoded());
  MarginalTable m(config_.d, beta);
  for (uint64_t cell = 0; cell < domain; ++cell) {
    auto f = EstimateFrequency(cell);
    if (!f.ok()) return f.status();
    m.at_compact(ExtractBits(cell, beta)) += *f;
  }
  return m;
}

void InpHtCmsProtocol::Reset() {
  for (auto& row : sign_sums_) row.assign(row.size(), 0.0);
  rows_.clear();
  decoded_ = false;
  ResetBookkeeping();
}

Status InpHtCmsProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const InpHtCmsProtocol*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument("InpHTCMS::MergeFrom: type mismatch");
  }
  if (peer->params_.num_hashes != params_.num_hashes ||
      peer->params_.width != params_.width) {
    return Status::InvalidArgument(
        "InpHTCMS::MergeFrom: sketch geometries differ");
  }
  for (size_t l = 0; l < hashes_.size(); ++l) {
    if (peer->hashes_[l].a() != hashes_[l].a() ||
        peer->hashes_[l].b() != hashes_[l].b() ||
        peer->hashes_[l].c() != hashes_[l].c()) {
      return Status::InvalidArgument(
          "InpHTCMS::MergeFrom: hash banks differ (created from different "
          "hash seeds)");
    }
  }
  for (int l = 0; l < params_.num_hashes; ++l) {
    for (int m = 0; m < params_.width; ++m) {
      sign_sums_[l][m] += peer->sign_sums_[l][m];
    }
  }
  decoded_ = false;
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout: reals = sign_sums_ flattened row-major (num_hashes * width);
// counts = [num_hashes, width, then (a, b, c) per hash row] — the sketch
// geometry and hash bank, validated on restore so a snapshot cannot be
// loaded into an instance whose hashes decode it differently.
void InpHtCmsProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.counts.push_back(static_cast<uint64_t>(params_.num_hashes));
  snapshot.counts.push_back(static_cast<uint64_t>(params_.width));
  for (const ThreeWiseHash& hash : hashes_) {
    snapshot.counts.push_back(hash.a());
    snapshot.counts.push_back(hash.b());
    snapshot.counts.push_back(hash.c());
  }
  for (const auto& row : sign_sums_) {
    snapshot.reals.insert(snapshot.reals.end(), row.begin(), row.end());
  }
}

Status InpHtCmsProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  const size_t w = static_cast<size_t>(params_.width);
  if (snapshot.reals.size() != sign_sums_.size() * w ||
      snapshot.counts.size() != 2 + 3 * hashes_.size()) {
    return Status::InvalidArgument("InpHTCMS::Restore: malformed snapshot");
  }
  if (snapshot.counts[0] != static_cast<uint64_t>(params_.num_hashes) ||
      snapshot.counts[1] != static_cast<uint64_t>(params_.width)) {
    return Status::InvalidArgument(
        "InpHTCMS::Restore: snapshot sketch geometry does not match");
  }
  for (size_t l = 0; l < hashes_.size(); ++l) {
    if (snapshot.counts[2 + 3 * l] != hashes_[l].a() ||
        snapshot.counts[3 + 3 * l] != hashes_[l].b() ||
        snapshot.counts[4 + 3 * l] != hashes_[l].c()) {
      return Status::InvalidArgument(
          "InpHTCMS::Restore: snapshot hash bank does not match (different "
          "hash seed)");
    }
  }
  for (size_t l = 0; l < sign_sums_.size(); ++l) {
    std::copy(snapshot.reals.begin() + l * w,
              snapshot.reals.begin() + (l + 1) * w, sign_sums_[l].begin());
  }
  rows_.clear();
  decoded_ = false;
  return Status::OK();
}

}  // namespace ldpm
