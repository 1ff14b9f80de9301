// Projected successive overrelaxation (PSOR) for dense LCPs.
//
// Classic iterative LCP solver (Cryer 1971). Requires a positive diagonal;
// converges for symmetric positive definite A with 0 < ω < 2. Mentioned in
// the paper's related-work discussion of LCP methods and implemented here
// both as a reference solver and as the "slower alternative" arm of the
// MMSIM-vs-other-LCP-methods ablation bench.
//
// Note: the saddle KKT matrix [K −Bᵀ; B 0] has zero diagonal entries, so
// PSOR does NOT apply to it directly — use it on standard-form LCPs (e.g.
// bound-constrained QPs) only. The ablation bench therefore compares on the
// x ≥ 0-only subproblem class where both methods are applicable.
#pragma once

#include <cstddef>

#include "lcp/lcp.h"

namespace mch::lcp {

struct PsorOptions {
  double omega = 1.4;       ///< relaxation parameter in (0, 2)
  double tolerance = 1e-10; ///< stop when ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞ < tolerance
  std::size_t max_iterations = 100000;
};

struct PsorResult {
  Vector z;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Solves LCP(q, A) by PSOR. Requires A(i,i) > 0 for all i.
PsorResult solve_psor(const DenseLcp& problem, const PsorOptions& options = {});

}  // namespace mch::lcp
