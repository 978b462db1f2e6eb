#include "oracle/olh.h"

#include <cmath>
#include <string>

#include "core/marginal.h"
#include "mechanisms/direct_encoding.h"

namespace ldpm {

StatusOr<std::unique_ptr<InpOlhProtocol>> InpOlhProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (config.d > kMaxDenseDimensions) {
    return Status::InvalidArgument(
        "InpOLH: d exceeds the dense-table limit");
  }
  // Wang et al.'s optimal GRR range g = e^eps + 1, rounded to an integer.
  const uint64_t g = std::max<uint64_t>(
      2, static_cast<uint64_t>(std::llround(std::exp(config.epsilon) + 1.0)));
  const double e = std::exp(config.epsilon);
  const double ps = e / (e + static_cast<double>(g) - 1.0);
  return std::unique_ptr<InpOlhProtocol>(new InpOlhProtocol(config, g, ps));
}

Report InpOlhProtocol::Encode(uint64_t user_value, Rng& rng) const {
  LDPM_DCHECK(user_value < (uint64_t{1} << config_.d));
  Report report;
  auto hash = UniversalHash::Random(g_, rng);
  LDPM_CHECK(hash.ok());
  const uint64_t hashed = (*hash)(user_value);
  // GRR over [g]: keep with probability ps, else uniform among the others.
  uint64_t reported = hashed;
  if (!rng.Bernoulli(ps_)) {
    const uint64_t other = rng.UniformInt(g_ - 1);
    reported = other < hashed ? other : other + 1;
  }
  report.selector = hash->a();
  report.aux = hash->b();
  report.value = reported;
  report.bits = TheoreticalBitsPerUser();
  return report;
}

Status InpOlhProtocol::Absorb(const Report& report) {
  if (report.value >= g_) {
    return Status::InvalidArgument("InpOLH::Absorb: value outside [0, g)");
  }
  auto hash = UniversalHash::FromCoefficients(report.selector, report.aux, g_);
  if (!hash.ok()) return hash.status();
  reports_.push_back({report.selector, report.aux, report.value});
  decoded_ = false;
  NoteAbsorbed(report);
  return Status::OK();
}

Status InpOlhProtocol::EnsureFrequencies() const {
  if (decoded_) return Status::OK();
  if (reports_.empty()) {
    return Status::FailedPrecondition("InpOLH: no reports absorbed");
  }
  const uint64_t domain = uint64_t{1} << config_.d;
  const double work =
      static_cast<double>(reports_.size()) * static_cast<double>(domain);
  if (work > kDefaultWorkCap) {
    return Status::FailedPrecondition(
        "InpOLH: decoding work " + std::to_string(work) +
        " exceeds the cap (the paper reports OLH timing out in this regime)");
  }

  std::vector<double> support(domain, 0.0);
  for (const OlhReport& r : reports_) {
    auto hash = UniversalHash::FromCoefficients(r.a, r.b, g_);
    LDPM_CHECK(hash.ok());  // validated at Absorb time
    for (uint64_t v = 0; v < domain; ++v) {
      if ((*hash)(v) == r.y) support[v] += 1.0;
    }
  }

  // Unbias: E[C_v / N] = f_v * p + (1 - f_v) / g  (the 1/g is exact for any
  // GRR keep probability; see Wang et al.).
  const double n = static_cast<double>(reports_.size());
  const double inv_g = 1.0 / static_cast<double>(g_);
  frequencies_.assign(domain, 0.0);
  for (uint64_t v = 0; v < domain; ++v) {
    frequencies_[v] = (support[v] / n - inv_g) / (ps_ - inv_g);
  }
  decoded_ = true;
  return Status::OK();
}

StatusOr<MarginalTable> InpOlhProtocol::EstimateMarginal(uint64_t beta) const {
  const uint64_t domain = uint64_t{1} << config_.d;
  if (beta >= domain) {
    return Status::OutOfRange("InpOLH: beta outside domain");
  }
  LDPM_RETURN_IF_ERROR(EnsureFrequencies());
  MarginalTable m(config_.d, beta);
  for (uint64_t cell = 0; cell < domain; ++cell) {
    m.at_compact(ExtractBits(cell, beta)) += frequencies_[cell];
  }
  return m;
}

void InpOlhProtocol::Reset() {
  reports_.clear();
  frequencies_.clear();
  decoded_ = false;
  ResetBookkeeping();
}

Status InpOlhProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const InpOlhProtocol*>(&other);
  if (peer == nullptr || peer->g_ != g_) {
    return Status::InvalidArgument("InpOLH::MergeFrom: type mismatch");
  }
  // Each report carries its own hash, so the log is order-free: decoding
  // sums per-report support counts.
  reports_.insert(reports_.end(), peer->reports_.begin(),
                  peer->reports_.end());
  decoded_ = false;
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout: counts = the report log flattened as (a, b, y) triples.
void InpOlhProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.counts.reserve(3 * reports_.size());
  for (const OlhReport& r : reports_) {
    snapshot.counts.push_back(r.a);
    snapshot.counts.push_back(r.b);
    snapshot.counts.push_back(r.y);
  }
}

Status InpOlhProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  if (!snapshot.reals.empty() ||
      snapshot.counts.size() != 3 * snapshot.reports_absorbed) {
    return Status::InvalidArgument("InpOLH::Restore: malformed snapshot");
  }
  std::vector<OlhReport> restored;
  restored.reserve(snapshot.reports_absorbed);
  for (size_t i = 0; i < snapshot.counts.size(); i += 3) {
    const uint64_t a = snapshot.counts[i];
    const uint64_t b = snapshot.counts[i + 1];
    const uint64_t y = snapshot.counts[i + 2];
    auto hash = UniversalHash::FromCoefficients(a, b, g_);
    if (!hash.ok() || y >= g_) {
      return Status::InvalidArgument(
          "InpOLH::Restore: logged report is malformed");
    }
    restored.push_back({a, b, y});
  }
  reports_ = std::move(restored);
  frequencies_.clear();
  decoded_ = false;
  return Status::OK();
}

}  // namespace ldpm
