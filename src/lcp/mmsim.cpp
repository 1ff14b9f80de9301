#include "lcp/mmsim.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "lcp/mmsim_kernels.h"
#include "linalg/cg.h"
#include "linalg/power_iteration.h"
#include "obs/metrics.h"
#include "linalg/simd.h"
#include "util/check.h"
#include "util/timer.h"

namespace mch::lcp {

namespace {
/// Systems below this LCP dimension skip phase-time collection: two clock
/// reads per scope would rival the arithmetic of a tiny component solve.
constexpr std::size_t kPhaseProfileMinSize = 256;

/// Adds the scope's wall time to `bucket` when enabled; costs nothing (not
/// even a clock read) when disabled.
class PhaseTimer {
 public:
  PhaseTimer(bool enabled, double& bucket)
      : bucket_(enabled ? &bucket : nullptr) {
    if (bucket_) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (bucket_)
      *bucket_ += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* bucket_;
  std::chrono::steady_clock::time_point start_;
};

/// Iterations between finisher pattern snapshots (solve_finished).
constexpr std::size_t kFinisherStride = 32;
/// |s| at or below this is the finisher pattern's 0 class: the degenerate
/// entries, tight with a zero multiplier.
constexpr double kFinisherZeroBand = 1e-6;

}  // namespace

using linalg::BlockDiagMatrix;
using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Tridiagonal;

Tridiagonal schur_tridiagonal(const BlockDiagMatrix& k, const CsrMatrix& b,
                              const std::vector<bool>* coupling_breaks) {
  const std::size_t m = b.rows();
  MCH_CHECK(coupling_breaks == nullptr || coupling_breaks->size() == m);
  Tridiagonal d(m);

  // Entry (r, r') of B K⁻¹ Bᵀ = Σ_{i,j} B[r,i] · K⁻¹[i,j] · B[r',j].
  // B has at most two nonzeros per row, so each entry needs at most four
  // K⁻¹ lookups; K⁻¹ is block diagonal so each lookup is O(log #blocks).
  const auto entry = [&](std::size_t r, std::size_t rp) {
    double sum = 0.0;
    for (std::size_t ka = b.row_ptr()[r]; ka < b.row_ptr()[r + 1]; ++ka)
      for (std::size_t kb = b.row_ptr()[rp]; kb < b.row_ptr()[rp + 1]; ++kb)
        sum += b.values()[ka] * b.values()[kb] *
               k.inverse_entry(b.col_idx()[ka], b.col_idx()[kb]);
    return sum;
  };

  for (std::size_t r = 0; r < m; ++r) {
    d.diag(r) = entry(r, r);
    if (r + 1 < m && !(coupling_breaks && (*coupling_breaks)[r + 1])) {
      d.upper(r) = entry(r, r + 1);
      d.lower(r) = entry(r + 1, r);
    }
  }
  return d;
}

MmsimSolver::MmsimSolver(const StructuredQp& qp, const MmsimOptions& options,
                         const std::vector<bool>* schur_coupling_breaks)
    : qp_(qp), opts_(options) {
  MCH_CHECK_MSG(opts_.beta > 0.0 && opts_.beta < 2.0,
                "beta must be in (0, 2)");
  MCH_CHECK(opts_.theta > 0.0 && opts_.gamma > 0.0);

  Timer timer;
  // (1,1) block of M + I: K/β* + I, block diagonal; store with inverses.
  // Scalar blocks shift in place through the flat array — same arithmetic
  // (v/β + 1, inverted as exactly its reciprocal) without a DenseMatrix.
  for (std::size_t blk = 0; blk < qp_.K.block_count(); ++blk) {
    if (qp_.K.is_scalar_block(blk)) {
      const std::size_t off = qp_.K.block_offset(blk);
      shifted_k_.add_scalar_block(qp_.K.scalar_values()[off] / opts_.beta +
                                  1.0);
      continue;
    }
    const DenseMatrix& kb = qp_.K.block(blk);
    const std::size_t n = kb.rows();
    DenseMatrix shifted(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        shifted(r, c) = kb(r, c) / opts_.beta + (r == c ? 1.0 : 0.0);
    shifted_k_.add_block(shifted);
  }

  d_ = mch::lcp::schur_tridiagonal(qp_.K, qp_.B, schur_coupling_breaks);
  // (2,2) block of M + I: D/θ* + I. The matrix is constant across the
  // iteration, so factor the Thomas pivots once here; every step then runs
  // only the short-recurrence forward sweep.
  shifted_d_ = d_.scaled_plus_identity(1.0 / opts_.theta, 1.0);
  MCH_CHECK_MSG(shifted_d_lu_.factor(shifted_d_), "D/θ + I singular");

  // Prebuild what the fused kernels traverse per element: the cached Bᵀ
  // view (so no per-product lock) and the scalar/general classification of
  // each variable's K block.
  bt_ = &qp_.B.transpose_view();
  general_var_.assign(qp_.K.size(), 0);
  for (const std::size_t b : qp_.K.general_block_indices()) {
    const std::size_t off = qp_.K.block_offset(b);
    const std::size_t size = qp_.K.block_size(b);
    for (std::size_t i = 0; i < size; ++i) general_var_[off + i] = 1;
    max_general_rows_ = std::max(max_general_rows_, size);
  }
  // Fixed-width-2 gather tables: the SoA views cached on B/Bᵀ (csr.h),
  // shared with the SIMD product kernels. num_constraints() > 0: the
  // padding slots load (and discard) column 0 of the opposite s half, which
  // must therefore exist. An empty B makes every gather a no-op anyway, so
  // the CSR loops lose nothing there.
  if (qp_.num_constraints() > 0 && qp_.num_variables() > 0) {
    bt_g2_ = bt_->gather2_view();
    b_g2_ = qp_.B.gather2_view();
    gather2_ = bt_g2_ != nullptr && b_g2_ != nullptr;
    if (!gather2_) {
      bt_g2_ = nullptr;
      b_g2_ = nullptr;
    }
  }
  // Flattened general-block tables (see the header): K block + inverse per
  // block, contiguous, so the block sweep streams one array instead of
  // chasing two small heap objects per block.
  const auto& gb = qp_.K.general_block_indices();
  gb_off_.resize(gb.size());
  gb_dim_.resize(gb.size());
  gb_data_.resize(gb.size());
  std::size_t total = 0;
  for (std::size_t g = 0; g < gb.size(); ++g) {
    const std::size_t bn = qp_.K.block_size(gb[g]);
    gb_off_[g] = qp_.K.block_offset(gb[g]);
    gb_dim_[g] = static_cast<std::uint32_t>(bn);
    gb_data_[g] = total;
    total += 2 * bn * bn;
  }
  gb_vals_.resize(total);
  for (std::size_t g = 0; g < gb.size(); ++g) {
    const std::size_t bn = gb_dim_[g];
    const DenseMatrix& kb = qp_.K.block(gb[g]);
    const DenseMatrix& inv = shifted_k_.block_inverse(gb[g]);
    double* out = gb_vals_.data() + gb_data_[g];
    for (std::size_t r = 0; r < bn; ++r)
      for (std::size_t c = 0; c < bn; ++c) *out++ = kb(r, c);
    for (std::size_t r = 0; r < bn; ++r)
      for (std::size_t c = 0; c < bn; ++c) *out++ = inv(r, c);
  }
  profile_ = qp_.lcp_size() >= kPhaseProfileMinSize;
  setup_seconds_ = timer.seconds();
}

double MmsimSolver::estimate_mu_max() const {
  const std::size_t m = qp_.num_constraints();
  if (m == 0) return 0.0;
  Vector t, u, v;
  const auto gamma_op = [&](const Vector& y, Vector& out) {
    qp_.B.multiply_transpose(y, t);  // t = Bᵀ y
    qp_.K.solve(t, u);               // u = K⁻¹ t
    qp_.B.multiply(u, v);            // v = B u
    MCH_CHECK_MSG(d_.solve(v, out), "D is singular");  // out = D⁻¹ v
  };
  return linalg::power_iteration(m, gamma_op).eigenvalue;
}

double MmsimSolver::suggest_theta() const {
  const double mu_max = estimate_mu_max();
  if (mu_max <= 0.0) return opts_.theta;
  const double bound = 2.0 * (2.0 - opts_.beta) / (opts_.beta * mu_max);
  // Theorem 2's bound assumes the exact Schur complement; with the
  // tridiagonal approximation D the empirically safe region is narrower
  // (bench/ablation_parameters maps it), so never suggest beyond the
  // paper's validated θ* = 0.5.
  return std::min(0.9 * bound, 0.5);
}

MmsimResult MmsimSolver::solve() const {
  return solve_from(Vector(qp_.lcp_size(), 0.0));
}

void MmsimResidualPartials::merge_max(const MmsimResidualPartials& other) {
  z_norm = std::max(z_norm, other.z_norm);
  w_norm = std::max(w_norm, other.w_norm);
  z_negativity = std::max(z_negativity, other.z_negativity);
  w_negativity = std::max(w_negativity, other.w_negativity);
  complementarity = std::max(complementarity, other.complementarity);
}

MmsimResidualPartials MmsimSolver::residual_partials(const Vector& z) const {
  Vector w;
  qp_.lcp_apply(z, w);
  MmsimResidualPartials partials;
  partials.z_norm = linalg::norm_inf(z);
  partials.w_norm = linalg::norm_inf(w);
  for (std::size_t i = 0; i < z.size(); ++i) {
    partials.z_negativity = std::max(partials.z_negativity, -z[i]);
    partials.w_negativity = std::max(partials.w_negativity, -w[i]);
    partials.complementarity =
        std::max(partials.complementarity, std::abs(z[i] * w[i]));
  }
  return partials;
}

bool MmsimSolver::residual_ok(const MmsimResidualPartials& partials,
                              double tolerance) {
  const double scale_z = 1.0 + partials.z_norm;
  const double scale_w = 1.0 + partials.w_norm;
  return partials.z_negativity <= tolerance * scale_z &&
         partials.w_negativity <= tolerance * scale_w &&
         partials.complementarity <= tolerance * scale_z * scale_w;
}

bool MmsimSolver::scaled_residual_ok(const Vector& z) const {
  return residual_ok(residual_partials(z), opts_.residual_tolerance);
}

MmsimSolver::State MmsimSolver::make_state() const {
  State state;
  reset_state(state);
  return state;
}

MmsimSolver::State MmsimSolver::make_state(const Vector& s0) const {
  State state;
  reset_state(state, &s0);
  return state;
}

void MmsimSolver::reset_state(State& state, const Vector* s0) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  if (s0 != nullptr) {
    MCH_CHECK(s0->size() == n + m);
    state.s1.assign(s0->begin(),
                    s0->begin() + static_cast<std::ptrdiff_t>(n));
    state.s2.assign(s0->begin() + static_cast<std::ptrdiff_t>(n), s0->end());
  } else {
    state.s1.assign(n, 0.0);
    state.s2.assign(m, 0.0);
  }
  state.z.assign(n + m, 0.0);
  state.z_prev.assign(n + m, 0.0);
  state.rhs2.resize(m);
  state.new_s1.resize(n);
  state.new_s2.resize(m);
  state.block_rhs.resize(max_general_rows_);
  state.pattern.clear();
  state.iterations = 0;
  state.phase = MmsimPhaseTimes{};
}

// The stage-by-stage iteration: the bitwise oracle the fused kernels must
// reproduce (tests/lcp/mmsim_fused_test compares them step by step). Two
// pieces of shared machinery intentionally differ from the pre-fusion code
// — the prefactored Thomas solve and the hoisted 1/γ multiply — because
// both paths must use the same rounding for their bitwise contract to hold.
double MmsimSolver::step_reference(State& state) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  Vector& s1 = state.s1;
  Vector& s2 = state.s2;
  Vector& abs1 = state.abs1;
  Vector& abs2 = state.abs2;
  Vector& rhs1 = state.rhs1;
  Vector& rhs2 = state.rhs2;
  const double inv_beta_minus_1 = 1.0 / opts_.beta - 1.0;
  const double inv_theta = 1.0 / opts_.theta;
  const double inv_gamma = 1.0 / opts_.gamma;
  abs1.resize(n);
  abs2.resize(m);

  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    state.z_prev = state.z;

    for (std::size_t i = 0; i < n; ++i) abs1[i] = std::abs(s1[i]);
    for (std::size_t i = 0; i < m; ++i) abs2[i] = std::abs(s2[i]);
    rhs1.assign(n, 0.0);
  }

  // rhs1 = (1/β−1)·K s1 + Bᵀ s2 + (|s1| − K|s1|) + Bᵀ|s2| − γ p.
  {
    PhaseTimer timer(profile_, state.phase.spmv_seconds);
    qp_.K.multiply_add(inv_beta_minus_1, s1, rhs1);
    qp_.B.multiply_transpose_add(1.0, s2, rhs1);
  }
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    for (std::size_t i = 0; i < n; ++i) rhs1[i] += abs1[i];
  }
  {
    PhaseTimer timer(profile_, state.phase.spmv_seconds);
    qp_.K.multiply_add(-1.0, abs1, rhs1);
    qp_.B.multiply_transpose_add(1.0, abs2, rhs1);
  }
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    for (std::size_t i = 0; i < n; ++i) rhs1[i] -= opts_.gamma * qp_.p[i];
  }

  // Forward solve of the block lower triangular system:
  //   (K/β + I)·s1' = rhs1             (block-diagonal solve)
  {
    PhaseTimer timer(profile_, state.phase.spmv_seconds);
    shifted_k_.solve(rhs1, state.new_s1);
  }

  //   rhs2 = (D/θ)·s2 − B|s1| + |s2| + γ b − B·s1_used, where s1_used is
  //   the fresh iterate under the paper's Gauss–Seidel splitting (the B
  //   block of M) or the previous one under the Jacobi ablation.
  if (m > 0) {
    {
      PhaseTimer timer(profile_, state.phase.spmv_seconds);
      d_.multiply(s2, rhs2);
    }
    {
      PhaseTimer timer(profile_, state.phase.kernel_seconds);
      for (std::size_t i = 0; i < m; ++i)
        rhs2[i] = inv_theta * rhs2[i] + abs2[i] + opts_.gamma * qp_.b[i];
    }
    {
      PhaseTimer timer(profile_, state.phase.spmv_seconds);
      qp_.B.multiply_add(-1.0, abs1, rhs2);
      qp_.B.multiply_add(
          -1.0,
          opts_.splitting == MmsimSplitting::kGaussSeidel ? state.new_s1 : s1,
          rhs2);
    }
    //   (D/θ + I)·s2' = rhs2           (Thomas solve, prefactored)
    PhaseTimer timer(profile_, state.phase.thomas_seconds);
    shifted_d_lu_.solve(rhs2, state.new_s2, state.thomas_d);
  } else {
    state.new_s2.clear();
  }

  s1.swap(state.new_s1);
  s2.swap(state.new_s2);

  // z = (|s| + s)/γ  (so z = max(s, 0)·2/γ).
  Vector& z = state.z;
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    for (std::size_t i = 0; i < n; ++i)
      z[i] = (std::abs(s1[i]) + s1[i]) * inv_gamma;
    for (std::size_t i = 0; i < m; ++i)
      z[n + i] = (std::abs(s2[i]) + s2[i]) * inv_gamma;
  }

  ++state.iterations;
  PhaseTimer timer(profile_, state.phase.reduction_seconds);
  return linalg::diff_norm_inf(z, state.z_prev);
}

// Fused iteration: one sweep per half-step computes |s|, the rhs
// chain, the triangular solve's local part, the z update, and the delta
// partial in a single pass, with Bᵀ/B gathers inlined through the cached
// CSR views. No abs1/abs2/rhs1 intermediates are materialized.
//
// Bitwise equality with step_reference holds because every output element's
// floating-point operation chain is replicated term by term in the
// reference order — including the zero-valued scalar-sweep terms that
// BlockDiagMatrix::multiply_add contributes at non-1×1-block positions, and
// recomputing |s| on the fly (std::abs is exact). The delta is an ∞-norm
// max-fold, associative and commutative over the identical value multiset,
// so splitting it across the three sweeps changes nothing.
double MmsimSolver::step(State& state) const {
  return gather2_ ? step_fused_impl<true>(state)
                  : step_fused_impl<false>(state);
}

// kGather2 = true swaps every CSR row loop for a constant-trip-count pass
// over the padded width-2 tables: no per-row trip-count branch to
// mispredict, uint32 column loads, no row_ptr loads at all. The padding
// terms are trailing `0.0 · x` adds; x + ±0.0 == x bitwise for every x
// except −0.0 + +0.0 == +0.0, so the only observable deviation from the
// CSR loop is the sign of an exactly-zero accumulator — which the chains
// below erase before it can touch a nonzero bit (each gather sum is
// followed by further adds, and z = (|s|+s)/γ collapses zero signs), so
// z/x/dual stay bitwise identical to step_reference.
template <bool kGather2>
double MmsimSolver::step_fused_impl(State& state) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  Vector& s1 = state.s1;
  Vector& s2 = state.s2;
  Vector& rhs2 = state.rhs2;
  Vector& new_s1 = state.new_s1;
  Vector& new_s2 = state.new_s2;
  Vector& z = state.z;
  const double c1 = 1.0 / opts_.beta - 1.0;
  const double inv_theta = 1.0 / opts_.theta;
  const double gamma = opts_.gamma;
  const double inv_gamma = 1.0 / opts_.gamma;

  const auto& kv = qp_.K.scalar_values();
  const auto& siv = shifted_k_.scalar_inverses();
  const std::vector<std::size_t>& bt_rp = bt_->row_ptr();
  const auto& bt_ci = bt_->col_idx();
  const auto& bt_v = bt_->values();
  const double* const bt_v0 = kGather2 ? bt_g2_->v0.data() : nullptr;
  const double* const bt_v1 = kGather2 ? bt_g2_->v1.data() : nullptr;
  const std::uint32_t* const bt_c0 = kGather2 ? bt_g2_->c0.data() : nullptr;
  const std::uint32_t* const bt_c1 = kGather2 ? bt_g2_->c1.data() : nullptr;
  // SIMD sweep kernels (bitwise identical to the scalar loops below); only
  // the gather2 layout has the SoA shape they consume.
  const kernels::MmsimSimdKernels* const sk =
      kGather2 ? kernels::mmsim_simd_kernels(linalg::simd_level()) : nullptr;

  double delta = 0.0;
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);

    // Primal half, 1×1-block rows (the ~90% fast path).
    if (sk != nullptr) {
      const kernels::PrimalCtx pctx{s1.data(),
                                    s2.data(),
                                    kv.data(),
                                    siv.data(),
                                    qp_.p.data(),
                                    bt_v0,
                                    bt_v1,
                                    bt_c0,
                                    bt_c1,
                                    general_var_.data(),
                                    new_s1.data(),
                                    z.data(),
                                    c1,
                                    gamma,
                                    inv_gamma};
      delta = sk->primal(pctx, 0, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (general_var_[i]) continue;
        const double s1i = s1[i];
        const double a1 = std::abs(s1i);
        // One traversal of the Bᵀ row feeds both gather terms (each
        // accumulator folds the same values in the same order as its
        // standalone gather would).
        double g_s2 = 0.0;   // Bᵀ s2
        double g_abs = 0.0;  // Bᵀ |s2|
        if constexpr (kGather2) {
          {
            const double v = bt_v0[i];
            const double x = s2[bt_c0[i]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
          {
            const double v = bt_v1[i];
            const double x = s2[bt_c1[i]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
        } else {
          for (std::size_t k = bt_rp[i]; k < bt_rp[i + 1]; ++k) {
            const double v = bt_v[k];
            const double x = s2[bt_ci[k]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
        }
        double r = 0.0;
        r += c1 * kv[i] * s1i;   // (1/β−1)·K s1, scalar sweep
        r += g_s2;
        r += a1;                 // + |s1|
        r += -1.0 * kv[i] * a1;  // − K|s1|, scalar sweep
        r += g_abs;
        r -= gamma * qp_.p[i];
        const double ns = siv[i] * r;  // (K/β + I)⁻¹, scalar row
        new_s1[i] = ns;
        const double zi = (std::abs(ns) + ns) * inv_gamma;
        delta = std::max(delta, std::abs(zi - z[i]));
        z[i] = zi;
      }
    }

    // Primal half, multi-row blocks (tall cells), streaming the flattened
    // gb_* tables. rb holds the block's rhs; the chain includes the zero
    // terms the flat scalar sweeps of the reference contribute at these
    // positions. kBn = 2 compiles the dominant double-height case with
    // every block loop fully unrolled; kBn = 0 is the runtime-size
    // fallback. Identical values in identical order either way.
    Vector& rb = state.block_rhs;
    const auto block_body = [&]<std::size_t kBn>(std::size_t g) {
      const std::size_t off = gb_off_[g];
      const std::size_t bn = kBn != 0 ? kBn : gb_dim_[g];
      const double* const kd = gb_vals_.data() + gb_data_[g];
      const double* const invd = kd + bn * bn;
      for (std::size_t r = 0; r < bn; ++r) {
        const std::size_t i = off + r;
        const double s1i = s1[i];
        const double a1 = std::abs(s1i);
        double g_s2 = 0.0;   // Bᵀ s2
        double g_abs = 0.0;  // Bᵀ |s2|, same single traversal
        if constexpr (kGather2) {
          {
            const double v = bt_v0[i];
            const double x = s2[bt_c0[i]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
          {
            const double v = bt_v1[i];
            const double x = s2[bt_c1[i]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
        } else {
          for (std::size_t k = bt_rp[i]; k < bt_rp[i + 1]; ++k) {
            const double v = bt_v[k];
            const double x = s2[bt_ci[k]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
        }
        double acc = 0.0;
        acc += c1 * kv[i] * s1i;  // zero term of the scalar sweep
        double sum = 0.0;
        for (std::size_t c = 0; c < bn; ++c)
          sum += kd[r * bn + c] * s1[off + c];
        acc += c1 * sum;  // (1/β−1)·K s1, block sweep
        acc += g_s2;
        acc += a1;
        acc += -1.0 * kv[i] * a1;  // zero term of the scalar sweep
        sum = 0.0;
        for (std::size_t c = 0; c < bn; ++c)
          sum += kd[r * bn + c] * std::abs(s1[off + c]);
        acc += -1.0 * sum;  // − K|s1|, block sweep
        acc += g_abs;
        acc -= gamma * qp_.p[i];
        rb[r] = acc;
      }
      for (std::size_t r = 0; r < bn; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < bn; ++c) sum += invd[r * bn + c] * rb[c];
        new_s1[off + r] = sum;
        const double zi = (std::abs(sum) + sum) * inv_gamma;
        delta = std::max(delta, std::abs(zi - z[off + r]));
        z[off + r] = zi;
      }
    };
    for (std::size_t g = 0; g < gb_off_.size(); ++g) {
      if (gb_dim_[g] == 2)
        block_body.template operator()<2>(g);
      else
        block_body.template operator()<0>(g);
    }
  }

  if (m > 0) {
    {
      PhaseTimer timer(profile_, state.phase.kernel_seconds);
      // Dual rhs in one sweep: the tridiagonal D row, the modulus terms,
      // and both B-row gathers (|s1| and the splitting-dependent s1).
      const Vector& s1_used =
          opts_.splitting == MmsimSplitting::kGaussSeidel ? new_s1 : s1;
      const std::vector<std::size_t>& b_rp = qp_.B.row_ptr();
      const auto& b_ci = qp_.B.col_idx();
      const auto& b_v = qp_.B.values();
      const double* const b_v0 = kGather2 ? b_g2_->v0.data() : nullptr;
      const double* const b_v1 = kGather2 ? b_g2_->v1.data() : nullptr;
      const std::uint32_t* const b_c0 = kGather2 ? b_g2_->c0.data() : nullptr;
      const std::uint32_t* const b_c1 = kGather2 ? b_g2_->c1.data() : nullptr;
      if (sk != nullptr) {
        const kernels::DualRhsCtx dctx{s2.data(),
                                       d_.diag_data().data(),
                                       d_.lower_data().data(),
                                       d_.upper_data().data(),
                                       qp_.b.data(),
                                       s1.data(),
                                       s1_used.data(),
                                       b_v0,
                                       b_v1,
                                       b_c0,
                                       b_c1,
                                       rhs2.data(),
                                       inv_theta,
                                       gamma,
                                       m};
        sk->dual_rhs(dctx, 0, m);
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          double sum = d_.diag(i) * s2[i];
          if (i > 0) sum += d_.lower(i - 1) * s2[i - 1];
          if (i + 1 < m) sum += d_.upper(i) * s2[i + 1];
          double t = inv_theta * sum + std::abs(s2[i]) + gamma * qp_.b[i];
          double g_abs = 0.0;   // B |s1|
          double g_used = 0.0;  // B s1_used, same single traversal
          if constexpr (kGather2) {
            {
              const double v = b_v0[i];
              const std::size_t c = b_c0[i];
              g_abs += v * std::abs(s1[c]);
              g_used += v * s1_used[c];
            }
            {
              const double v = b_v1[i];
              const std::size_t c = b_c1[i];
              g_abs += v * std::abs(s1[c]);
              g_used += v * s1_used[c];
            }
          } else {
            for (std::size_t k = b_rp[i]; k < b_rp[i + 1]; ++k) {
              const double v = b_v[k];
              const std::size_t c = b_ci[k];
              g_abs += v * std::abs(s1[c]);
              g_used += v * s1_used[c];
            }
          }
          t += -1.0 * g_abs;
          t += -1.0 * g_used;
          rhs2[i] = t;
        }
      }
    }
    {
      PhaseTimer timer(profile_, state.phase.thomas_seconds);
      shifted_d_lu_.solve(rhs2, new_s2, state.thomas_d);
    }
    {
      PhaseTimer timer(profile_, state.phase.kernel_seconds);
      if (sk != nullptr) {
        const kernels::DualZCtx zctx{new_s2.data(), z.data() + n, inv_gamma};
        delta = std::max(delta, sk->dual_z(zctx, 0, m));
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          const double ns = new_s2[i];
          const double zi = (std::abs(ns) + ns) * inv_gamma;
          delta = std::max(delta, std::abs(zi - z[n + i]));
          z[n + i] = zi;
        }
      }
    }
  } else {
    new_s2.clear();
  }

  s1.swap(new_s1);
  s2.swap(new_s2);
  ++state.iterations;
  return delta;
}

bool MmsimSolver::pattern_settled(State& state) const {
  const std::size_t n = state.s1.size();
  const std::size_t total = n + state.s2.size();
  bool same = state.pattern.size() == total;
  state.pattern.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    const double s = i < n ? state.s1[i] : state.s2[i - n];
    const signed char c = s > kFinisherZeroBand    ? 1
                          : s < -kFinisherZeroBand ? -1
                                                   : 0;
    same = same && c == state.pattern[i];
    state.pattern[i] = c;
  }
  return same;
}

// The settled pattern names the active set: variables in class +1 are free
// (x > 0), every other variable is pinned at 0 by a unit row, and spacing
// rows in class +1 or 0 hold with equality (the 0 class carries the
// degenerate rows — tight with a zero multiplier — that a raw sign pattern
// would see flip until the last iteration). With B′ = [B_E; I_pinned] and
// b′ = [b_E; 0], the equality-constrained QP's KKT system reduces to the
// Schur system S y = b′ + B′K⁻¹p, S = B′K⁻¹B′ᵀ (K⁻¹ block diagonal, so S is
// applied matrix-free), and x = K⁻¹(B′ᵀy − p).
bool MmsimSolver::try_finish(State& state) const {
  static obs::Counter& attempts = obs::counter("mmsim.finisher.attempts");
  static obs::Counter& accepted = obs::counter("mmsim.finisher.accepted");
  attempts.add();
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  std::vector<std::size_t> rows;    // equality spacing rows
  std::vector<std::size_t> pinned;  // variables held at 0
  for (std::size_t r = 0; r < m; ++r)
    if (state.pattern[n + r] >= 0) rows.push_back(r);
  for (std::size_t i = 0; i < n; ++i)
    if (state.pattern[i] <= 0) pinned.push_back(i);
  const std::size_t ne = rows.size();
  const std::size_t dim = ne + pinned.size();

  const std::vector<std::size_t>& rp = qp_.B.row_ptr();
  const auto& ci = qp_.B.col_idx();
  const auto& bv = qp_.B.values();
  const auto scatter = [&](const Vector& y, Vector& out) {  // out = B′ᵀy
    out.assign(n, 0.0);
    for (std::size_t k = 0; k < ne; ++k)
      for (std::size_t e = rp[rows[k]]; e < rp[rows[k] + 1]; ++e)
        out[ci[e]] += bv[e] * y[k];
    for (std::size_t k = 0; k < pinned.size(); ++k) out[pinned[k]] += y[ne + k];
  };
  const auto gather = [&](const Vector& v, Vector& out) {  // out = B′v
    out.resize(dim);
    for (std::size_t k = 0; k < ne; ++k) {
      double sum = 0.0;
      for (std::size_t e = rp[rows[k]]; e < rp[rows[k] + 1]; ++e)
        sum += bv[e] * v[ci[e]];
      out[k] = sum;
    }
    for (std::size_t k = 0; k < pinned.size(); ++k) out[ne + k] = v[pinned[k]];
  };

  Vector t, u;
  const auto apply_schur = [&](const Vector& y, Vector& out) {
    scatter(y, t);
    qp_.K.solve(t, u);
    gather(u, out);
  };
  // Jacobi diagonal: diag(B K⁻¹ Bᵀ) is D's diagonal; a unit row's is K⁻¹ᵢᵢ.
  Vector diagonal(dim);
  for (std::size_t k = 0; k < ne; ++k) diagonal[k] = d_.diag(rows[k]);
  for (std::size_t k = 0; k < pinned.size(); ++k)
    diagonal[ne + k] = qp_.K.inverse_entry(pinned[k], pinned[k]);

  Vector rhs;
  qp_.K.solve(qp_.p, u);
  gather(u, rhs);
  for (std::size_t k = 0; k < ne; ++k) rhs[k] += qp_.b[rows[k]];

  // Start from the current multipliers: the duals on spacing rows, the
  // reduced gradient w₁ on the unit rows.
  Vector w;
  qp_.lcp_apply(state.z, w);
  Vector y(dim);
  for (std::size_t k = 0; k < ne; ++k) y[k] = state.z[n + rows[k]];
  for (std::size_t k = 0; k < pinned.size(); ++k) y[ne + k] = w[pinned[k]];

  // CG only has to resolve the system well below the certificate below;
  // it is not an acceptance test.
  linalg::CgOptions cg;
  cg.tolerance = 1e-3 * opts_.residual_tolerance;
  cg.max_iterations = dim + 16;
  linalg::conjugate_gradient(apply_schur, diagonal, rhs, y, cg);

  Vector z(n + m, 0.0);
  scatter(y, t);
  for (std::size_t i = 0; i < n; ++i) t[i] -= qp_.p[i];
  qp_.K.solve(t, u);
  std::copy(u.begin(), u.end(), z.begin());
  for (std::size_t k = 0; k < ne; ++k) z[n + rows[k]] = y[k];

  if (!scaled_residual_ok(z)) return false;
  accepted.add();
  // s = γ/2·(z − w) is the modulus preimage of (z, w): MMSIM's fixed point
  // when (z, w) solves the LCP, so the slot's warm start stays valid.
  qp_.lcp_apply(z, w);
  const double half_gamma = 0.5 * opts_.gamma;
  for (std::size_t i = 0; i < n; ++i)
    state.s1[i] = half_gamma * (z[i] - w[i]);
  for (std::size_t r = 0; r < m; ++r)
    state.s2[r] = half_gamma * (z[n + r] - w[n + r]);
  state.z = std::move(z);
  return true;
}

MmsimResult MmsimSolver::run_loop(State& state, bool finish) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();

  Timer timer;
  MmsimResult result;
  result.setup_seconds = setup_seconds_;

  // Finisher back-off: the earliest iteration of the next attempt, and the
  // wait added after a rejection (doubles until the pattern moves again).
  std::size_t finish_next = 0;
  std::size_t finish_wait = kFinisherStride;
  std::size_t k = 0;
  while (state.iterations < opts_.max_iterations) {
    result.final_delta = step(state);
    if (opts_.trace_stride > 0 &&
        (state.iterations - 1) % opts_.trace_stride == 0)
      result.trace.emplace_back(state.iterations, result.final_delta);
    if (k > 0 && result.final_delta < opts_.tolerance) {
      bool stop = true;
      if (opts_.residual_check) {
        PhaseTimer phase_timer(profile_, state.phase.reduction_seconds);
        static obs::Counter& residual_checks =
            obs::counter("mmsim.residual_checks");
        residual_checks.add();
        stop = scaled_residual_ok(state.z);
      }
      if (stop) {
        result.converged = true;
        break;
      }
    }
    if (finish && state.iterations % kFinisherStride == 0) {
      if (!pattern_settled(state)) {
        finish_next = 0;
        finish_wait = kFinisherStride;
      } else if (state.iterations >= finish_next) {
        if (try_finish(state)) {
          result.converged = true;
          result.finished = true;
          break;
        }
        finish_next = state.iterations + finish_wait;
        finish_wait *= 2;
      }
    }
    ++k;
  }
  result.iterations = state.iterations;
  {
    static obs::Counter& solves = obs::counter("mmsim.solves");
    static obs::Counter& iterations = obs::counter("mmsim.iterations");
    solves.add();
    iterations.add(state.iterations);
  }

  // Copy (not move) out of the state: its buffers stay alive for the next
  // reset_state() to reuse.
  result.z = state.z;
  result.x.assign(result.z.begin(),
                  result.z.begin() + static_cast<std::ptrdiff_t>(n));
  result.dual.assign(result.z.begin() + static_cast<std::ptrdiff_t>(n),
                     result.z.end());
  result.s.resize(n + m);
  std::copy(state.s1.begin(), state.s1.end(), result.s.begin());
  std::copy(state.s2.begin(), state.s2.end(),
            result.s.begin() + static_cast<std::ptrdiff_t>(n));
  result.phase = state.phase;
  result.solve_seconds = timer.seconds();
  return result;
}

MmsimResult MmsimSolver::solve_from(const Vector& s0) const {
  State state = make_state(s0);
  return run_loop(state, /*finish=*/false);
}

MmsimResult MmsimSolver::solve_in(State& state, const Vector* s0) const {
  reset_state(state, s0);
  return run_loop(state, /*finish=*/false);
}

MmsimResult MmsimSolver::solve_finished(State& state, const Vector* s0) const {
  reset_state(state, s0);
  return run_loop(state, /*finish=*/true);
}

}  // namespace mch::lcp
