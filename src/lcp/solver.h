// Per-component LCP solve and its non-convergence escalation ladder.
//
// The legalization constraint graph decomposes into independent connected
// components (see legal/partition.h). Every component is solved the same
// way: the paper's MMSIM with the exact active-set finisher
// (MmsimSolver::solve_finished), which accepts a point only through MMSIM's
// own scaled-residual certificate. By Theorem 2 each component's relaxed
// QP has one optimum, so one solver serves components of every size and
// shape. Lemke pivoting and PSOR (lcp/lemke.h, lcp/psor.h) are reference
// solvers for tests and ablations, not production paths.
#pragma once

#include <cstddef>
#include <vector>

#include "lcp/mmsim.h"
#include "lcp/qp.h"
#include "lcp/workspace.h"

namespace mch::lcp {

struct LcpSolveResult {
  Vector x;     ///< primal variables (cell/subcell positions)
  Vector dual;  ///< multipliers of the spacing rows
  std::size_t iterations = 0;  ///< MMSIM iterations
  bool converged = false;
  /// True when MMSIM's active-set finisher produced the accepted result
  /// (MmsimSolver::solve_finished).
  bool finished = false;
  /// True when the solve started from a matching warm-start payload in its
  /// workspace slot. Always false for cold solves; session/ECO callers
  /// aggregate this into a hit rate.
  bool warm_started = false;
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;
  /// MMSIM per-phase timing (zero for tiny systems — see MmsimPhaseTimes).
  MmsimPhaseTimes phase;
};

struct LcpSolverConfig {
  MmsimOptions mmsim;
  /// For MMSIM on a sub-problem extracted from a larger system: rows whose
  /// tridiagonal Schur coupling to the preceding row must be dropped
  /// because the rows were not adjacent in the parent ordering (keeps the
  /// sub-solve iterating exactly as the parent would). Not owned; must
  /// outlive the call. nullptr = no breaks.
  const std::vector<bool>* schur_coupling_breaks = nullptr;
};

/// Solves the QP's KKT LCP by MMSIM with the active-set finisher. Without a
/// slot the solve starts from zero in fresh buffers. With a slot it
/// iterates in the slot's buffers (no per-solve allocation once the slot
/// has seen the shape) and stores the final s back as the slot's
/// warm-start payload; when `warm_start` is true and the slot holds a
/// payload of matching shape, iteration starts from it — same fixed point,
/// fewer iterations. With `warm_start` false the result is bitwise
/// identical to the slot-less solve.
LcpSolveResult solve_mmsim(const StructuredQp& qp,
                           const LcpSolverConfig& config,
                           SolverWorkspace::Slot* slot = nullptr,
                           bool warm_start = false);

// ---------------------------------------------------------------------------
// Non-convergence escalation ladder.
//
// A failed solve must never be shipped silently: solve_with_recovery walks
// a fixed ladder of retries until one converges or the ladder is exhausted,
// in which case the caller degrades explicitly (the legalizer clamps the
// component to its row-assigned snap positions and records a SolveFailure).
// The ladder only runs after a failure, so converged solves are untouched —
// their results stay bitwise identical to a recovery-free build.

/// Which ladder rung produced the accepted result.
enum class RecoveryRung {
  kPrimary,      ///< the first solve converged
  kEscalated,    ///< retry with escalated parameters (θ re-probe, relaxed
                 ///< γ, multiplied iteration budget)
  kColdRestart,  ///< the escalated parameters again, from s⁽⁰⁾ = 0
  kExhausted,    ///< no rung converged — the caller must degrade explicitly
};

const char* to_string(RecoveryRung rung);

/// γ of the escalated retries. The modulus fixed point is γ-invariant, so
/// relaxing γ to the classic modulus choice 1.0 changes the iteration
/// trajectory, not the solution.
constexpr double kEscalatedGamma = 1.0;

struct RecoveryOptions {
  /// Master switch. When false a failed primary solve is returned as
  /// kExhausted immediately (the pre-recovery surface-the-failure path).
  bool enabled = true;
  /// Iteration budget multiplier for every escalated retry.
  std::size_t budget_multiplier = 4;
  /// Fault injection: treat the first `forced_failures` attempts as failed
  /// even when they converge, forcing the ladder onto later rungs. Set by
  /// tests and by the MCH_FORCE_SOLVER_FAILURE environment variable (see
  /// resolve_recovery_options); 0 in production.
  std::size_t forced_failures = 0;
};

/// Overlays the MCH_FORCE_SOLVER_FAILURE environment variable (a forced-
/// failure count for fault-injection test runs) onto `base`. The env var
/// applies only when base.forced_failures is 0, so explicit test settings
/// win over the ambient ctest variant.
RecoveryOptions resolve_recovery_options(RecoveryOptions base = {});

/// The escalated MMSIM parameters for `qp`: θ* re-derived from the
/// Theorem-2 bound for this system (MmsimSolver::suggest_theta, which can
/// only shrink θ*; kept when m = 0), γ = kEscalatedGamma, and the iteration
/// budget multiplied by recovery.budget_multiplier. `breaks` is the
/// system's Schur coupling-break mask (LcpSolverConfig), if any. Serves
/// both the per-component ladder and the legalizer's whole-solve retry.
MmsimOptions escalate_mmsim_options(const StructuredQp& qp,
                                    const MmsimOptions& options,
                                    const RecoveryOptions& recovery,
                                    const std::vector<bool>* breaks = nullptr);

struct RecoveredSolve {
  /// The accepted result; only meaningful when rung != kExhausted.
  LcpSolveResult result;
  RecoveryRung rung = RecoveryRung::kPrimary;
  std::size_t attempts = 0;           ///< solve attempts, failed + accepted
  std::size_t wasted_iterations = 0;  ///< iterations burned by failed attempts
};

/// Solves the QP with solve_mmsim and, on failure, walks the escalation
/// ladder: a retry with escalated parameters, then a cold restart with
/// those parameters, then exhaustion. The slot (optional) is used for
/// buffer reuse and warm starts exactly as in solve_mmsim; the escalated
/// retry warm-starts from the failed iterate when a slot is present, so a
/// budget exhaustion resumes instead of restarting.
RecoveredSolve solve_with_recovery(const StructuredQp& qp,
                                   const LcpSolverConfig& config,
                                   const RecoveryOptions& recovery,
                                   SolverWorkspace::Slot* slot = nullptr,
                                   bool warm_start = false);

}  // namespace mch::lcp
