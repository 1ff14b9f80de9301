// Modulus-based matrix splitting iteration method (MMSIM) for the
// legalization KKT LCP — Algorithm 1 of the paper.
//
// The LCP(q, A) with A = [K −Bᵀ; B 0] is solved with the splitting (paper
// Eq. (16)):
//
//     M = [ K/β*      0    ]      N = M − A = [ (1/β*−1)K   Bᵀ  ]
//         [  B     D/θ*    ]                  [     0      D/θ* ]
//
// where D = tridiag(B K⁻¹ Bᵀ) approximates the Schur complement. With
// Ω = I, each iteration solves
//
//     (M + I) s⁽ᵏ⁺¹⁾ = N s⁽ᵏ⁾ + (I − A)|s⁽ᵏ⁾| − γ q,
//     z⁽ᵏ⁺¹⁾ = (|s⁽ᵏ⁺¹⁾| + s⁽ᵏ⁺¹⁾) / γ,
//
// and M + I is block lower triangular: the (1,1) block K/β* + I is block
// diagonal (one small block per cell — solved with precomputed block
// inverses in O(n)) and the (2,2) block D/θ* + I is tridiagonal (Thomas
// solve in O(m)). Every iteration is therefore linear-time in the circuit
// size; this is the paper's central efficiency claim.
//
// One iteration is serial on the calling thread; the legalizer spreads
// independent components across threads (src/runtime/), so a solve's
// result never depends on the thread count.
//
// Convergence (paper Theorem 2): guaranteed for 0 < β* < 2 and
// 0 < θ* < 2(2 − β*)/(β*·μ_max), μ_max the largest eigenvalue of
// Γ = D⁻¹ B K⁻¹ Bᵀ. suggest_theta() estimates that bound by power
// iteration; the paper's fixed choice β* = θ* = 0.5 is the default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lcp/qp.h"
#include "linalg/tridiagonal.h"

namespace mch::lcp {

/// Which splitting builds M (ablation of the paper's Eq. 16 choice).
enum class MmsimSplitting {
  /// The paper's block-Gauss-Seidel form: M = [K/β* 0; B D/θ*] — the dual
  /// update sees the *current* primal iterate through the B block.
  kGaussSeidel,
  /// Block-Jacobi ablation: M = [K/β* 0; 0 D/θ*] — primal and dual relax
  /// independently. Converges markedly slower (see bench/ablation_parameters),
  /// demonstrating why the paper couples the blocks.
  kJacobi,
};

struct MmsimOptions {
  double beta = 0.5;        ///< β* in (0, 2); paper uses 0.5
  double theta = 0.5;       ///< θ* > 0; paper uses 0.5
  MmsimSplitting splitting = MmsimSplitting::kGaussSeidel;
  double gamma = 2.0;       ///< γ > 0 of the modulus transform
  /// Stop when ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞ < tolerance. 1e-4 is far below the site
  /// pitch, so the Tetris allocation absorbs it; optimality tests tighten
  /// this to 1e-8.
  double tolerance = 1e-4;
  std::size_t max_iterations = 20000;
  /// The successive-difference criterion alone can fire prematurely when
  /// the iteration's contraction factor is close to 1 (e.g. θ* near the
  /// convergence boundary): steps become tiny long before the fixed point.
  /// When enabled, a candidate stop is accepted only if the scaled LCP
  /// residual (feasibility + complementarity) is also below
  /// residual_tolerance; otherwise the iteration continues.
  bool residual_check = true;
  double residual_tolerance = 1e-7;
  /// Record ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞ every `trace_stride` iterations into
  /// MmsimResult::trace (0 = off). Used by the convergence bench/plots.
  std::size_t trace_stride = 0;
};

/// Wall-clock breakdown of a solve by kernel phase, accumulated across
/// step() calls. Only collected for systems of at least 256 LCP variables —
/// timer reads would dominate the arithmetic of the many tiny component
/// solves the partitioned legalizer runs, and those contribute nothing to
/// the totals anyway.
struct MmsimPhaseTimes {
  double kernel_seconds = 0.0;     ///< element-wise modulus/rhs/z sweeps
  double spmv_seconds = 0.0;       ///< standalone matrix products + block solves
  double thomas_seconds = 0.0;     ///< tridiagonal (D/θ* + I) solves
  double reduction_seconds = 0.0;  ///< delta folds of the stopping rule
  double total() const {
    return kernel_seconds + spmv_seconds + thomas_seconds + reduction_seconds;
  }
  void accumulate(const MmsimPhaseTimes& other) {
    kernel_seconds += other.kernel_seconds;
    spmv_seconds += other.spmv_seconds;
    thomas_seconds += other.thomas_seconds;
    reduction_seconds += other.reduction_seconds;
  }
};

struct MmsimResult {
  Vector x;                   ///< primal variables (cell/subcell positions)
  Vector dual;                ///< multipliers of the spacing constraints
  Vector z;                   ///< full LCP solution [x; dual]
  /// Final splitting iterate [s1; s2] — the warm-start vector for a later
  /// solve of the same (or a nearby) problem via solve_from()/solve_in().
  Vector s;
  MmsimPhaseTimes phase;      ///< per-phase timing (see MmsimPhaseTimes)
  std::size_t iterations = 0;
  bool converged = false;
  /// True when the active-set finisher produced the accepted iterate (see
  /// MmsimSolver::solve_finished); implies converged.
  bool finished = false;
  double final_delta = 0.0;   ///< last ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;
  /// (iteration, delta) samples when options.trace_stride > 0.
  std::vector<std::pair<std::size_t, double>> trace;
};

/// Per-part maxima of the scaled-residual stopping test. Each field is an
/// ∞-norm-style maximum, so the partials of a sub-problem combine with those
/// of its siblings by plain max — the combined decision is then exactly the
/// decision the monolithic solver would have made on the concatenated z
/// (the partitioned legalizer relies on this to stay bitwise-faithful).
struct MmsimResidualPartials {
  double z_norm = 0.0;          ///< ‖z‖∞
  double w_norm = 0.0;          ///< ‖Az + q‖∞
  double z_negativity = 0.0;    ///< max(0, −z_i)
  double w_negativity = 0.0;    ///< max(0, −w_i)
  double complementarity = 0.0; ///< max |z_i·w_i|
  void merge_max(const MmsimResidualPartials& other);
};

class MmsimSolver {
 public:
  /// Prepares the splitting for the given QP: builds the shifted block
  /// inverses of K/β* + I and the tridiagonal D/θ* + I. The QP must outlive
  /// the solver.
  ///
  /// `schur_coupling_breaks` (optional, size = #constraints) marks rows
  /// whose tridiagonal coupling to the *preceding* row must be dropped from
  /// D. A sub-problem extracted from a larger system passes the rows that
  /// were not adjacent in the parent ordering, so the sub-solve iterates
  /// exactly as the parent solver would on those rows.
  MmsimSolver(const StructuredQp& qp, const MmsimOptions& options = {},
              const std::vector<bool>* schur_coupling_breaks = nullptr);

  /// Runs Algorithm 1 from s⁽⁰⁾ = 0.
  MmsimResult solve() const;

  /// Runs Algorithm 1 from the given start vector s⁽⁰⁾ (size lcp_size()).
  MmsimResult solve_from(const Vector& s0) const;

  /// Iteration state for the incremental step() API. The partitioned
  /// legalizer advances many per-component solvers in lockstep with a
  /// global stopping rule; solve_from()/solve_in() run on the same
  /// machinery. States are plain buffer bundles: a SolverWorkspace slot
  /// keeps one alive across solves so reset_state() can reuse its capacity.
  struct State {
    Vector z;                 ///< current iterate [x; dual] (modulus image)
    std::size_t iterations = 0;
    MmsimPhaseTimes phase;    ///< timing accumulated by step()

   private:
    friend class MmsimSolver;
    Vector s1, s2;            ///< splitting state, primal / dual parts
    Vector z_prev;
    Vector rhs2, new_s1, new_s2;  ///< scratch
    Vector thomas_d;          ///< Thomas forward-sweep scratch
    Vector block_rhs;         ///< rhs of one non-1×1 K block (fused step)
    /// 3-class sign pattern of [s1; s2] at the last finisher snapshot
    /// (solve_finished only; empty until the first snapshot).
    std::vector<signed char> pattern;
    /// step_reference() intermediates, sized on its first call so the
    /// production step never allocates them.
    Vector abs1, abs2, rhs1;
  };

  /// Fresh state at s⁽⁰⁾ = 0.
  State make_state() const;
  /// Fresh state at the given s⁽⁰⁾ (size lcp_size()).
  State make_state(const Vector& s0) const;

  /// Re-initializes `state` in place at s⁽⁰⁾ = *s0 (zero when null),
  /// reusing the buffers' capacity — no allocation when the shapes repeat.
  /// Equivalent to overwriting with make_state().
  void reset_state(State& state, const Vector* s0 = nullptr) const;

  /// Runs Algorithm 1 on caller-owned buffers: reset_state(state, s0), then
  /// the MmsimOptions stopping rule. Bitwise identical to solve_from() for
  /// the same s0; the point is buffer reuse across solves (SolverWorkspace).
  MmsimResult solve_in(State& state, const Vector* s0 = nullptr) const;

  /// solve_in() plus the exact active-set finisher — the production
  /// component path (lcp::solve_mmsim), not Algorithm 1. Every 32
  /// iterations it snapshots the 3-class sign pattern of s (+1: s > ε,
  /// −1: s < −ε, 0 otherwise, ε = 1e-6); when a snapshot repeats the
  /// previous one it solves the equality-constrained QP that pattern
  /// defines and accepts the result only if it passes the same scaled
  /// residual certificate as the MmsimOptions stopping rule. A rejected
  /// attempt leaves the iterate untouched, so the run continues exactly as
  /// solve_in() would; repeated rejections on an unchanged pattern back off
  /// geometrically. An accepted result has finished = true, and its s is
  /// γ/2·(z − w): a valid warm start for a later solve.
  MmsimResult solve_finished(State& state, const Vector* s0 = nullptr) const;

  /// Advances one modulus iteration and returns ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞. The
  /// caller owns the stopping rule (solve_from() applies the tolerance +
  /// residual_check policy in MmsimOptions). Runs the fused single-sweep
  /// kernels: two sweeps per half-step, no |s| or rhs intermediates.
  double step(State& state) const;

  /// The stage-by-stage iteration, one matrix product or element-wise stage
  /// at a time — the test oracle that step() must reproduce bit for bit on
  /// z, x and dual at every SIMD level
  /// (tests/lcp/mmsim_fused_test, tests/lcp/mmsim_simd_test). Not used by
  /// any solve.
  double step_reference(State& state) const;

  /// Residual maxima of z for the scaled stopping test; combine across
  /// sub-problems with merge_max, decide with residual_ok.
  MmsimResidualPartials residual_partials(const Vector& z) const;

  /// The scaled-residual decision on (possibly merged) partials.
  static bool residual_ok(const MmsimResidualPartials& partials,
                          double tolerance);

  /// The tridiagonal Schur approximation D = tridiag(B K⁻¹ Bᵀ).
  const linalg::Tridiagonal& schur_tridiagonal() const { return d_; }

  /// Estimates the convergence bound 2(2−β*)/(β*·μ_max) of Theorem 2 via
  /// power iteration on Γ = D⁻¹ B K⁻¹ Bᵀ, and returns a θ* inside it.
  /// Theorem 2's bound assumes the exact Schur complement; with the
  /// tridiagonal approximation D the admissible range is empirically
  /// narrower (see bench/ablation_parameters), so the suggestion is
  /// additionally capped at the paper's validated 0.5 — the probe exists to
  /// *shrink* θ* on unusual instances (the escalated recovery retries, see
  /// lcp::escalate_mmsim_options), never to enlarge it. Returns
  /// options.theta unchanged when m = 0.
  double suggest_theta() const;

  /// μ_max estimate of Γ = D⁻¹ B K⁻¹ Bᵀ (power iteration).
  double estimate_mu_max() const;

 private:
  /// True when the scaled LCP residual of z is below residual_tolerance.
  bool scaled_residual_ok(const Vector& z) const;

  /// step() body, specialized on whether the fixed-width-2 gather
  /// tables are in use (kGather2 = true compiles the B/Bᵀ gathers as
  /// constant-trip-count loops with no per-row branch).
  template <bool kGather2>
  double step_fused_impl(State& state) const;
  /// Iteration loop + result packaging shared by solve_from()/solve_in()
  /// and, with `finish`, solve_finished().
  MmsimResult run_loop(State& state, bool finish) const;
  /// Refreshes state.pattern from s; true when it equals the previous
  /// snapshot.
  bool pattern_settled(State& state) const;
  /// One finisher attempt on the settled pattern; on acceptance writes the
  /// exact z and its s into `state` and returns true.
  bool try_finish(State& state) const;

  const StructuredQp& qp_;
  MmsimOptions opts_;
  linalg::BlockDiagMatrix shifted_k_;  ///< K/β* + I with block inverses
  linalg::Tridiagonal d_;              ///< tridiag(B K⁻¹ Bᵀ)
  linalg::Tridiagonal shifted_d_;      ///< D/θ* + I
  /// Thomas factorization of shifted_d_, computed once at setup. Both step
  /// paths solve through it (required for their bitwise equality — see
  /// TridiagonalFactorization on why it rounds differently from
  /// Tridiagonal::solve).
  linalg::TridiagonalFactorization shifted_d_lu_;
  /// Cached Bᵀ view, prebuilt at construction so the fused kernels gather
  /// through it without the per-call lock of multiply_transpose_add.
  const linalg::CsrMatrix* bt_ = nullptr;
  /// Per-variable flag: 1 when the variable belongs to a non-1×1 K block
  /// (handled by the block sweep of the fused kernel instead of the flat
  /// scalar sweep).
  std::vector<unsigned char> general_var_;
  /// Fixed-width-2 (padded ELL / SoA) gather tables for the fused sweeps:
  /// the CsrGather2 views cached on B and its transpose (see csr.h), held
  /// when every B and Bᵀ row has at most two entries — always true for the
  /// pairwise spacing constraints this solver exists for. Short rows are
  /// padded with value 0.0 *after* their real entries, so each gather folds
  /// the same values in the same order as the CSR loop plus trailing ±0
  /// terms. Those padding terms can at most flip the sign of an
  /// exactly-zero s entry (never a z bit — see step_fused_impl), which is
  /// below the solver's bitwise contract on z/x/dual. uint32 columns halve
  /// the index traffic of the hot sweeps; the split v0/v1 slot arrays are
  /// what the SIMD sweep kernels (lcp/mmsim_kernels.h) load directly.
  bool gather2_ = false;
  const linalg::CsrGather2* bt_g2_ = nullptr;
  const linalg::CsrGather2* b_g2_ = nullptr;
  /// Flattened copies of the non-1×1 K blocks for the fused block sweep.
  /// Block g of general_block_indices() owns
  /// gb_vals_[gb_data_[g] .. gb_data_[g] + 2·bn²): its K block (row-major,
  /// bn = gb_dim_[g]) followed by the block's inverse from shifted_k_. One contiguous stream instead of two heap-scattered
  /// DenseMatrix objects per block — same values, same arithmetic order.
  std::vector<std::size_t> gb_off_;
  std::vector<std::uint32_t> gb_dim_;
  std::vector<std::size_t> gb_data_;
  Vector gb_vals_;
  /// Largest non-1×1 block dimension — sizes State::block_rhs.
  std::size_t max_general_rows_ = 0;
  /// Collect MmsimPhaseTimes. Disabled for tiny systems, where the timer
  /// reads would rival the arithmetic (see MmsimPhaseTimes).
  bool profile_ = false;
  double setup_seconds_ = 0.0;
};

/// Computes D = tridiag(B K⁻¹ Bᵀ) directly from the block-diagonal inverse
/// of K. Exposed for tests (validated against the paper's Sherman–Morrison
/// closed form for all-double-height designs). When `coupling_breaks` is
/// given (size = #rows), rows flagged true get zero coupling to their
/// predecessor — see the MmsimSolver constructor.
linalg::Tridiagonal schur_tridiagonal(
    const linalg::BlockDiagMatrix& k, const linalg::CsrMatrix& b,
    const std::vector<bool>* coupling_breaks = nullptr);

}  // namespace mch::lcp
