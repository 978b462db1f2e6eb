// Failpoints: named fault-injection sites compiled into the production
// binary, disarmed to a single relaxed atomic load.
//
// The paper's deployment — telemetry from millions of devices — makes
// disconnects, stalled writers, and mid-write crashes the steady state,
// so the recovery paths (client retry/resume, checkpoint generation
// fallback, the sticky checkpoint error) need a deliberate seam to be driven
// through deterministically. A failpoint is that seam: code marks an
// injection site with
//
//   LDPM_FAILPOINT("file_io.fsync");
//
// which does nothing (one relaxed load of a global counter) until a test,
// the chaos harness, or the LDPM_FAILPOINTS environment variable arms the
// site. An armed site can
//
//   * return an error Status (injected failure, propagated through the
//     enclosing function's normal error path),
//   * sleep for a configured delay and continue (stall injection), or
//   * abort the process (crash injection, for fork-based kill tests).
//
// Sites are plain strings; docs/operations.md catalogs every site the
// tree defines. Arming is programmatic (failpoint::Arm) or environmental:
//
//   LDPM_FAILPOINTS="file_io.fsync=error;net.server.read=error*2+10"
//
// arms `file_io.fsync` to fail every evaluation and `net.server.read` to
// skip its first 10 evaluations then fail twice and auto-disarm. Grammar
// per entry: site=MODE[*count][+skip] with MODE one of
// error, error(CodeName), delay(milliseconds), abort.
//
// Thread-safety: Arm/Disarm/Evaluate may race freely; evaluation takes a
// global registry mutex only while at least one site is armed (failpoints
// are a test/chaos facility, not a hot-path feature).

#ifndef LDPM_CORE_FAILPOINT_H_
#define LDPM_CORE_FAILPOINT_H_

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "core/status.h"

namespace ldpm {
namespace failpoint {

/// What an armed site does when evaluated.
enum class Mode {
  kOff,    ///< Site is disarmed (never stored; Disarm removes the entry).
  kError,  ///< Return an injected error Status.
  kDelay,  ///< Sleep for `delay`, then continue normally.
  kAbort,  ///< std::abort() — simulated crash at the site.
};

/// Full description of an armed site's behavior.
struct Spec {
  Mode mode = Mode::kError;
  /// Evaluations that fire before the site auto-disarms; < 0 = unlimited.
  int count = -1;
  /// Evaluations to pass through untouched before the first firing (lets a
  /// test target "the 11th read" without instrumenting the call site).
  int skip = 0;
  /// Sleep duration for kDelay.
  std::chrono::milliseconds delay{0};
  /// Status code injected by kError.
  StatusCode code = StatusCode::kUnavailable;
  /// Message injected by kError; empty derives "failpoint <site> injected
  /// error" so every injected Status is self-identifying.
  std::string message;
};

/// True while any site is armed — the disarmed fast path is exactly this
/// one relaxed load (LDPM_FAILPOINT expands to it).
bool AnyArmed();

/// Arms (or re-arms, replacing the spec of) `site`.
void Arm(const std::string& site, Spec spec);

/// Arms `site` to fail every evaluation with `code` (the common one-liner).
void ArmError(const std::string& site,
              StatusCode code = StatusCode::kUnavailable);

/// Disarms `site`; no-op when it is not armed.
void Disarm(const std::string& site);

/// Disarms every site and zeroes hit counts (test teardown).
void DisarmAll();

/// Parses and applies an LDPM_FAILPOINTS-style spec string (see the file
/// comment for the grammar). InvalidArgument on a malformed entry; entries
/// before the malformed one stay armed.
Status ArmFromString(const std::string& specs);

/// Times `site` actually fired (error returned / delay slept / abort
/// reached) since the last DisarmAll. Counts survive auto-disarm.
uint64_t HitCount(const std::string& site);

/// Names of currently armed sites, ascending.
std::vector<std::string> ArmedSites();

/// Evaluates `site`: OK when disarmed, still skipping, or after a delay
/// fires; the injected error when an error fires. Call through
/// LDPM_FAILPOINT rather than directly so the disarmed cost stays one load.
Status Evaluate(const char* site);

}  // namespace failpoint
}  // namespace ldpm

/// Marks an injection site inside a function returning Status or
/// StatusOr<T>: disarmed it costs one relaxed load; armed with an error
/// spec it returns the injected Status through the enclosing function.
#define LDPM_FAILPOINT(site)                                          \
  do {                                                                \
    if (::ldpm::failpoint::AnyArmed()) {                              \
      ::ldpm::Status _ldpm_fp_status =                                \
          ::ldpm::failpoint::Evaluate(site);                          \
      if (!_ldpm_fp_status.ok()) return _ldpm_fp_status;              \
    }                                                                 \
  } while (0)

/// Same, for void functions and sites that must not early-return: the
/// injected Status lands in `status_out` (a Status lvalue) instead.
#define LDPM_FAILPOINT_STATUS(site, status_out)                       \
  do {                                                                \
    if (::ldpm::failpoint::AnyArmed()) {                              \
      (status_out) = ::ldpm::failpoint::Evaluate(site);               \
    }                                                                 \
  } while (0)

#endif  // LDPM_CORE_FAILPOINT_H_
