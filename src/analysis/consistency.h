// Consistency post-processing for collections of estimated marginals.
//
// The marginal-perturbation protocols (MargRR/MargPS/MargHT) estimate each
// k-way marginal independently, so two estimates that overlap on a common
// attribute subset generally *disagree* about it — an artifact downstream
// consumers (OLAP, model fitting) cannot tolerate. Barak et al.'s classic
// observation (which the paper builds on for Lemma 3.7) is that marginals
// live in the span of the low-order Fourier coefficients, so enforcing a
// single shared coefficient vector makes every reconstruction mutually
// consistent by construction.
//
// MakeConsistent fits that shared vector: each input marginal implies an
// estimate of every coefficient alpha ⪯ beta (its own Walsh-Hadamard
// transform), the per-alpha estimates are combined by weighted averaging
// (the least-squares solution under per-marginal weights), and every
// requested marginal is rebuilt from the common coefficients via
// Lemma 3.7. Exact inputs pass through unchanged; InpHT estimates are
// already consistent and are fixed points of this operation.
//
// MakeConsistent stays the library call for an arbitrary set of
// estimates (any selectors, any weights). The serving path does not call
// it: a snapshot rebuild takes one coefficient export from the merged
// engine state (MarginalProtocol::EstimateCoefficients, whose default is
// FitSharedCoefficients with equal weights over every selector up to the
// cached order) and reconstructs each table from it.

#ifndef LDPM_ANALYSIS_CONSISTENCY_H_
#define LDPM_ANALYSIS_CONSISTENCY_H_

#include <vector>

#include "core/hadamard.h"

namespace ldpm {

/// Fits the shared low-order coefficient vector implied by a set of
/// marginal estimates over the same d-attribute domain. `weights`, if
/// nonempty, must match `marginals` in length and weights each marginal's
/// vote (e.g. by its report count); empty means equal weights. The zero
/// coefficient is fixed at 1 (a distribution's constant coefficient). The
/// result is dense over every alpha up to the highest input order m
/// (sum_{r<=m} C(d, r) slots); a coefficient no input with positive weight
/// covers is left unset.
StatusOr<FourierCoefficients> FitSharedCoefficients(
    const std::vector<MarginalTable>& marginals, int d,
    const std::vector<double>& weights = {});

/// Rebuilds every input marginal from the shared fitted coefficients. The
/// outputs exactly agree on all overlaps: marginalizing any two outputs to
/// a common sub-selector gives identical tables. The fit holds only the
/// coefficients under some input selector (at most sum_i 2^{|beta_i|}),
/// not the dense set FitSharedCoefficients returns, and its values are
/// bitwise those FitSharedCoefficients stores.
StatusOr<std::vector<MarginalTable>> MakeConsistent(
    const std::vector<MarginalTable>& marginals, int d,
    const std::vector<double>& weights = {});

}  // namespace ldpm

#endif  // LDPM_ANALYSIS_CONSISTENCY_H_
