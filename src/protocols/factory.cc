#include "protocols/factory.h"

#include <string>

#include "protocols/inp_em.h"
#include "protocols/inp_es.h"
#include "protocols/inp_ht.h"
#include "protocols/inp_ps.h"
#include "protocols/inp_rr.h"
#include "protocols/marg_ht.h"
#include "protocols/marg_ps.h"
#include "protocols/marg_rr.h"

namespace ldpm {

const std::vector<ProtocolKind>& AllProtocolKinds() {
  static const std::vector<ProtocolKind> kAll = {
      ProtocolKind::kInpRR,  ProtocolKind::kInpPS,  ProtocolKind::kInpHT,
      ProtocolKind::kMargRR, ProtocolKind::kMargPS, ProtocolKind::kMargHT,
      ProtocolKind::kInpEM,
  };
  return kAll;
}

const std::vector<ProtocolKind>& CoreProtocolKinds() {
  static const std::vector<ProtocolKind> kCore = {
      ProtocolKind::kInpRR,  ProtocolKind::kInpPS,  ProtocolKind::kInpHT,
      ProtocolKind::kMargRR, ProtocolKind::kMargPS, ProtocolKind::kMargHT,
  };
  return kCore;
}

const std::vector<ProtocolKind>& RegisteredProtocolKinds() {
  static const std::vector<ProtocolKind> kRegistered = {
      ProtocolKind::kInpRR,  ProtocolKind::kInpPS,  ProtocolKind::kInpHT,
      ProtocolKind::kMargRR, ProtocolKind::kMargPS, ProtocolKind::kMargHT,
      ProtocolKind::kInpEM,  ProtocolKind::kInpES,
  };
  return kRegistered;
}

std::string_view ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kInpRR:
      return "InpRR";
    case ProtocolKind::kInpPS:
      return "InpPS";
    case ProtocolKind::kInpHT:
      return "InpHT";
    case ProtocolKind::kMargRR:
      return "MargRR";
    case ProtocolKind::kMargPS:
      return "MargPS";
    case ProtocolKind::kMargHT:
      return "MargHT";
    case ProtocolKind::kInpEM:
      return "InpEM";
    case ProtocolKind::kInpES:
      return "InpES";
  }
  return "Unknown";
}

StatusOr<ProtocolKind> ProtocolKindFromName(std::string_view name) {
  for (ProtocolKind kind : RegisteredProtocolKinds()) {
    if (ProtocolKindName(kind) == name) return kind;
  }
  return Status::NotFound("unknown protocol name: " + std::string(name));
}

StatusOr<std::unique_ptr<MarginalProtocol>> CreateProtocol(
    ProtocolKind kind, const ProtocolConfig& config) {
  // Each branch narrows StatusOr<unique_ptr<Derived>> to the base pointer.
  switch (kind) {
    case ProtocolKind::kInpRR: {
      auto p = InpRrProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
    case ProtocolKind::kInpPS: {
      auto p = InpPsProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
    case ProtocolKind::kInpHT: {
      auto p = InpHtProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
    case ProtocolKind::kMargRR: {
      auto p = MargRrProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
    case ProtocolKind::kMargPS: {
      auto p = MargPsProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
    case ProtocolKind::kMargHT: {
      auto p = MargHtProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
    case ProtocolKind::kInpEM: {
      auto p = InpEmProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
    case ProtocolKind::kInpES: {
      auto p = InpEsProtocol::Create(config);
      if (!p.ok()) return p.status();
      return std::unique_ptr<MarginalProtocol>(std::move(*p));
    }
  }
  return Status::InvalidArgument("unknown protocol kind");
}

}  // namespace ldpm
