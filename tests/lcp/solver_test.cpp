// Tests of the per-component solve (lcp::solve_mmsim) against direct MMSIM
// and the Lemke reference, the Schur coupling-break mask used by
// sub-problems extracted from a larger system, and the escalation ladder.
#include "lcp/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <string>

#include "lcp/lemke.h"

namespace mch::lcp {
namespace {

using linalg::CooMatrix;
using linalg::CsrMatrix;
using linalg::DenseMatrix;

DenseMatrix scalar_block(double value) {
  DenseMatrix block(1, 1);
  block(0, 0) = value;
  return block;
}

/// Three cells in one row with two spacing constraints — a miniature of the
/// legalization QP with an active constraint at the optimum.
StructuredQp chain_qp() {
  StructuredQp qp;
  for (int i = 0; i < 3; ++i) qp.K.add_block(scalar_block(1.0));
  qp.p = {-10.0, -11.0, -20.0};  // targets 10, 11, 20; widths force spread
  CooMatrix coo(2, 3);
  coo.add(0, 0, -1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 1, -1.0);
  coo.add(1, 2, 1.0);
  qp.B = CsrMatrix::from_coo(coo);
  qp.b = {4.0, 4.0};  // cell widths
  return qp;
}

/// Two cells with no spacing rows (m = 0): the KKT LCP is LCP(p, K).
StructuredQp unconstrained_qp() {
  StructuredQp qp;
  qp.K.add_block(scalar_block(2.0));
  qp.K.add_block(scalar_block(4.0));
  qp.p = {-6.0, 8.0};  // solutions max(0, −p/k) = {3, 0}
  qp.B = CsrMatrix::from_coo(CooMatrix(0, 2));
  return qp;
}

/// The exact solution by Lemke pivoting, split into x and the duals.
LcpSolveResult lemke_solution(const StructuredQp& qp) {
  const LemkeResult lemke = solve_lemke(qp.to_dense_lcp());
  LcpSolveResult result;
  const auto split =
      lemke.z.begin() + static_cast<std::ptrdiff_t>(qp.num_variables());
  result.x.assign(lemke.z.begin(), split);
  result.dual.assign(split, lemke.z.end());
  result.converged = lemke.status == LemkeStatus::kSolved;
  return result;
}

TEST(LcpSolverTest, ToStringNames) {
  // The rung names are the `rung` label of the recovery.* metrics.
  EXPECT_STREQ(to_string(RecoveryRung::kPrimary), "primary");
  EXPECT_STREQ(to_string(RecoveryRung::kEscalated), "escalated");
  EXPECT_STREQ(to_string(RecoveryRung::kColdRestart), "cold_restart");
  EXPECT_STREQ(to_string(RecoveryRung::kExhausted), "exhausted");
}

TEST(LcpSolverTest, MmsimAdapterMatchesDirectSolver) {
  // The adapter runs MMSIM with the active-set finisher
  // (MmsimSolver::solve_finished). Where the finisher never accepts, it is
  // bit for bit the direct Algorithm 1 solve.
  const StructuredQp qp = chain_qp();
  LcpSolverConfig config;
  const LcpSolveResult adapted = solve_mmsim(qp, config);
  const MmsimResult direct = MmsimSolver(qp, config.mmsim).solve();
  EXPECT_TRUE(adapted.converged);
  EXPECT_FALSE(adapted.finished);
  EXPECT_EQ(adapted.iterations, direct.iterations);
  ASSERT_EQ(adapted.x.size(), direct.x.size());
  for (std::size_t i = 0; i < adapted.x.size(); ++i)
    EXPECT_EQ(adapted.x[i], direct.x[i]) << "x[" << i << "]";
  ASSERT_EQ(adapted.dual.size(), direct.dual.size());
  for (std::size_t i = 0; i < adapted.dual.size(); ++i)
    EXPECT_EQ(adapted.dual[i], direct.dual[i]) << "dual[" << i << "]";

  // Where it accepts — a stop tight enough that MMSIM alone polishes past
  // the settled active set — the adapter stops early on the exact solution.
  LcpSolverConfig tight;
  tight.mmsim.tolerance = 1e-12;
  tight.mmsim.residual_tolerance = 1e-10;
  const LcpSolveResult finished = solve_mmsim(qp, tight);
  const MmsimResult polished = MmsimSolver(qp, tight.mmsim).solve();
  const LcpSolveResult exact = lemke_solution(qp);
  ASSERT_TRUE(finished.converged);
  ASSERT_TRUE(finished.finished);
  ASSERT_TRUE(exact.converged);
  EXPECT_LT(finished.iterations, polished.iterations);
  double x_norm = 0.0;
  for (const double v : exact.x) x_norm = std::max(x_norm, std::abs(v));
  ASSERT_EQ(finished.x.size(), exact.x.size());
  for (std::size_t i = 0; i < exact.x.size(); ++i)
    EXPECT_NEAR(finished.x[i], exact.x[i], 1e-6 * (1.0 + x_norm))
        << "x[" << i << "]";
}

TEST(LcpSolverTest, LemkeAgreesWithMmsim) {
  const StructuredQp qp = chain_qp();
  LcpSolverConfig config;
  config.mmsim.tolerance = 1e-10;
  config.mmsim.residual_tolerance = 1e-9;
  const LcpSolveResult lemke = lemke_solution(qp);
  const LcpSolveResult mmsim = solve_mmsim(qp, config);
  ASSERT_TRUE(lemke.converged);
  ASSERT_TRUE(mmsim.converged);
  ASSERT_EQ(lemke.x.size(), mmsim.x.size());
  for (std::size_t i = 0; i < lemke.x.size(); ++i)
    EXPECT_NEAR(lemke.x[i], mmsim.x[i], 1e-6) << "x[" << i << "]";
  // The spread forced by the widths: feasibility B x ≥ b holds exactly for
  // the pivoting solver.
  EXPECT_GE(lemke.x[1] - lemke.x[0], qp.b[0] - 1e-12);
  EXPECT_GE(lemke.x[2] - lemke.x[1], qp.b[1] - 1e-12);
}

TEST(LcpSolverTest, MmsimSolvesUnconstrainedQp) {
  // m = 0 components have no spacing rows and no Schur system; MMSIM still
  // solves them (PSOR used to take them).
  const LcpSolveResult result = solve_mmsim(unconstrained_qp(), {});
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.x.size(), 2u);
  EXPECT_NEAR(result.x[0], 3.0, 1e-6);
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
  EXPECT_TRUE(result.dual.empty());
}

TEST(LcpSolverTest, ColdSlotSolveMatchesSlotlessAndStoresPayload) {
  const StructuredQp qp = chain_qp();
  const LcpSolveResult plain = solve_mmsim(qp, {});
  SolverWorkspace workspace;
  workspace.prepare(1);
  SolverWorkspace::Slot& slot = workspace.slot(0);
  // warm_start is false, so an empty slot and a slot-less solve agree bit
  // for bit; the slot only lends its buffers.
  const LcpSolveResult slotted = solve_mmsim(qp, {}, &slot, false);
  EXPECT_FALSE(slotted.warm_started);
  EXPECT_EQ(slotted.iterations, plain.iterations);
  ASSERT_EQ(slotted.x.size(), plain.x.size());
  for (std::size_t i = 0; i < plain.x.size(); ++i)
    EXPECT_EQ(slotted.x[i], plain.x[i]) << "x[" << i << "]";
  ASSERT_EQ(slotted.dual.size(), plain.dual.size());
  for (std::size_t i = 0; i < plain.dual.size(); ++i)
    EXPECT_EQ(slotted.dual[i], plain.dual[i]) << "dual[" << i << "]";
  // The final s is kept as the slot's warm-start payload, with its shape.
  EXPECT_EQ(slot.warm_variables, 3u);
  EXPECT_EQ(slot.warm_constraints, 2u);
  EXPECT_EQ(slot.warm_s.size(), 5u);
}

TEST(LcpSolverTest, WarmStartResumesFromStoredPayload) {
  const StructuredQp qp = chain_qp();
  SolverWorkspace workspace;
  workspace.prepare(1);
  SolverWorkspace::Slot& slot = workspace.slot(0);
  const LcpSolveResult cold = solve_mmsim(qp, {}, &slot, true);
  EXPECT_FALSE(cold.warm_started);  // nothing stored yet
  const LcpSolveResult warm = solve_mmsim(qp, {}, &slot, true);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(warm.converged);
  EXPECT_TRUE(warm.warm_started);
  // Same fixed point, reached from the previous one in fewer iterations.
  EXPECT_LT(warm.iterations, cold.iterations);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t i = 0; i < cold.x.size(); ++i)
    EXPECT_NEAR(warm.x[i], cold.x[i], 1e-3) << "x[" << i << "]";
}

TEST(LcpSolverTest, WarmStartIgnoresPayloadOfAnotherShape) {
  SolverWorkspace workspace;
  workspace.prepare(1);
  SolverWorkspace::Slot& slot = workspace.slot(0);
  // Prime the slot with a 2-variable, 0-row payload.
  ASSERT_TRUE(solve_mmsim(unconstrained_qp(), {}, &slot, false).converged);
  ASSERT_EQ(slot.warm_variables, 2u);
  ASSERT_EQ(slot.warm_constraints, 0u);

  const StructuredQp qp = chain_qp();
  const LcpSolveResult requested = solve_mmsim(qp, {}, &slot, true);
  const LcpSolveResult cold = solve_mmsim(qp, {});
  EXPECT_FALSE(requested.warm_started);
  EXPECT_EQ(requested.iterations, cold.iterations);
  ASSERT_EQ(requested.x.size(), cold.x.size());
  for (std::size_t i = 0; i < cold.x.size(); ++i)
    EXPECT_EQ(requested.x[i], cold.x[i]) << "x[" << i << "]";
  // The payload now has the new shape.
  EXPECT_EQ(slot.warm_variables, 3u);
  EXPECT_EQ(slot.warm_constraints, 2u);
  EXPECT_EQ(slot.warm_s.size(), 5u);
}

TEST(LcpSolverTest, SchurCouplingBreaksZeroTheTridiagonal) {
  const StructuredQp qp = chain_qp();
  const linalg::Tridiagonal full = schur_tridiagonal(qp.K, qp.B);
  // The two rows share variable 1, so the full approximation couples them.
  ASSERT_NE(full.upper(0), 0.0);
  ASSERT_NE(full.lower(0), 0.0);

  // Mark row 1 as not adjacent to row 0 in the (hypothetical) parent
  // ordering: the coupling must be dropped, the diagonal untouched.
  const std::vector<bool> breaks = {false, true};
  const linalg::Tridiagonal broken = schur_tridiagonal(qp.K, qp.B, &breaks);
  EXPECT_EQ(broken.upper(0), 0.0);
  EXPECT_EQ(broken.lower(0), 0.0);
  EXPECT_EQ(broken.diag(0), full.diag(0));
  EXPECT_EQ(broken.diag(1), full.diag(1));
}

TEST(LcpSolverTest, MmsimAdapterHonorsCouplingBreaks) {
  const StructuredQp qp = chain_qp();
  const std::vector<bool> breaks = {false, true};
  LcpSolverConfig config;
  config.schur_coupling_breaks = &breaks;
  // Solver setup must pick up the mask (observable through the weaker
  // splitting still converging to the same solution).
  const LcpSolveResult result = solve_mmsim(qp, config);
  const LcpSolveResult reference = lemke_solution(qp);
  ASSERT_TRUE(result.converged);
  for (std::size_t i = 0; i < result.x.size(); ++i)
    EXPECT_NEAR(result.x[i], reference.x[i], 1e-3) << "x[" << i << "]";
}

// --- escalation ladder -----------------------------------------------------

TEST(RecoveryLadderTest, ConvergedPrimaryIsUntouched) {
  const StructuredQp qp = chain_qp();
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, RecoveryOptions{});
  const LcpSolveResult direct = solve_mmsim(qp, LcpSolverConfig{});
  EXPECT_EQ(recovered.rung, RecoveryRung::kPrimary);
  EXPECT_EQ(recovered.attempts, 1u);
  EXPECT_EQ(recovered.wasted_iterations, 0u);
  ASSERT_TRUE(recovered.result.converged);
  // Recovery must not perturb the success path: bitwise-equal result.
  ASSERT_EQ(recovered.result.x.size(), direct.x.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i)
    EXPECT_EQ(recovered.result.x[i], direct.x[i]) << "x[" << i << "]";
}

TEST(RecoveryLadderTest, ForcedFailureRecoversAtEscalatedRung) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 1;
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kEscalated);
  EXPECT_EQ(recovered.attempts, 2u);
  EXPECT_GT(recovered.wasted_iterations, 0u);
  ASSERT_TRUE(recovered.result.converged);
  const LcpSolveResult reference = lemke_solution(qp);
  for (std::size_t i = 0; i < reference.x.size(); ++i)
    EXPECT_NEAR(recovered.result.x[i], reference.x[i], 1e-3);
}

TEST(RecoveryLadderTest, LadderFallsBackToColdRestartThenExhausts) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 2;  // primary + escalated forced down
  RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kColdRestart);
  EXPECT_EQ(recovered.attempts, 3u);
  ASSERT_TRUE(recovered.result.converged);

  recovery.forced_failures = 3;  // ... + cold restart: nothing is left
  recovered = solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  EXPECT_EQ(recovered.attempts, 3u);
  EXPECT_GT(recovered.wasted_iterations, 0u);
}

// Rung 1 resumes from the failed iterate kept in the slot; the cold-restart
// rung must instead be exactly a fresh solve with the escalated parameters
// (θ* re-probed, γ relaxed, budget multiplied).
TEST(RecoveryLadderTest, ColdRestartRungMatchesDirectEscalatedColdSolve) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 2;
  SolverWorkspace workspace;
  workspace.prepare(1);
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery, &workspace.slot(0),
                          /*warm_start=*/true);
  ASSERT_EQ(recovered.rung, RecoveryRung::kColdRestart);
  EXPECT_FALSE(recovered.result.warm_started);

  LcpSolverConfig escalated;
  escalated.mmsim.theta = MmsimSolver(qp, escalated.mmsim).suggest_theta();
  escalated.mmsim.gamma = kEscalatedGamma;
  escalated.mmsim.max_iterations *= recovery.budget_multiplier;
  const LcpSolveResult direct = solve_mmsim(qp, escalated);
  ASSERT_TRUE(direct.converged);
  EXPECT_EQ(recovered.result.iterations, direct.iterations);
  ASSERT_EQ(recovered.result.x.size(), direct.x.size());
  ASSERT_EQ(recovered.result.dual.size(), direct.dual.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i)
    EXPECT_EQ(recovered.result.x[i], direct.x[i]) << "x[" << i << "]";
  for (std::size_t i = 0; i < direct.dual.size(); ++i)
    EXPECT_EQ(recovered.result.dual[i], direct.dual[i]) << "dual[" << i << "]";
}

TEST(RecoveryLadderTest, EscalatedOptionsReprobeThetaRelaxGammaAndMultiplyBudget) {
  const StructuredQp qp = chain_qp();
  MmsimOptions options;
  options.theta = 3.0;  // beyond what the re-probe can return
  options.max_iterations = 100;
  options.tolerance = 1e-6;
  RecoveryOptions recovery;
  recovery.budget_multiplier = 7;
  const MmsimOptions escalated =
      escalate_mmsim_options(qp, options, recovery);
  EXPECT_EQ(escalated.theta, MmsimSolver(qp, options).suggest_theta());
  EXPECT_LE(escalated.theta, 0.5);
  EXPECT_EQ(escalated.gamma, kEscalatedGamma);
  EXPECT_EQ(escalated.max_iterations, 700u);
  // Everything else is the caller's.
  EXPECT_EQ(escalated.beta, options.beta);
  EXPECT_EQ(escalated.tolerance, options.tolerance);
  EXPECT_EQ(escalated.residual_tolerance, options.residual_tolerance);
  EXPECT_EQ(escalated.residual_check, options.residual_check);

  // A zero multiplier never shrinks the budget.
  recovery.budget_multiplier = 0;
  EXPECT_EQ(escalate_mmsim_options(qp, options, recovery).max_iterations,
            100u);
}

TEST(RecoveryLadderTest, EscalatedOptionsKeepThetaWithoutConstraints) {
  // With m = 0 there is no Schur system to probe: θ* stays as given.
  MmsimOptions options;
  options.theta = 3.0;
  options.max_iterations = 10;
  const MmsimOptions escalated =
      escalate_mmsim_options(unconstrained_qp(), options, RecoveryOptions{});
  EXPECT_EQ(escalated.theta, 3.0);
  EXPECT_EQ(escalated.gamma, kEscalatedGamma);
  EXPECT_EQ(escalated.max_iterations, 40u);
}

TEST(RecoveryLadderTest, EscalatedOptionsProbeWithCouplingBreaks) {
  // β* near 2 pulls the Theorem-2 bound under the 0.5 cap, so θ* follows
  // μ_max of D⁻¹ B K⁻¹ Bᵀ — which the break mask changes through D.
  const StructuredQp qp = chain_qp();
  const std::vector<bool> breaks = {false, true};
  MmsimOptions options;
  options.beta = 1.9;
  const RecoveryOptions recovery;
  const double whole = escalate_mmsim_options(qp, options, recovery).theta;
  const double broken =
      escalate_mmsim_options(qp, options, recovery, &breaks).theta;
  EXPECT_EQ(whole, MmsimSolver(qp, options).suggest_theta());
  EXPECT_EQ(broken, MmsimSolver(qp, options, &breaks).suggest_theta());
  EXPECT_LT(whole, 0.5);
  EXPECT_NE(whole, broken);
}

TEST(RecoveryLadderTest, EscalatedRungResumesFromFailedIterateInSlot) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 1;
  const RecoveredSolve slotless =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  SolverWorkspace workspace;
  workspace.prepare(1);
  const RecoveredSolve slotted = solve_with_recovery(
      qp, LcpSolverConfig{}, recovery, &workspace.slot(0),
      /*warm_start=*/false);
  ASSERT_EQ(slotless.rung, RecoveryRung::kEscalated);
  ASSERT_EQ(slotted.rung, RecoveryRung::kEscalated);
  // Without a slot the escalated retry starts from zero; with one it starts
  // from the (forced-failed, in fact converged) primary iterate. Both reach
  // the same fixed point.
  EXPECT_FALSE(slotless.result.warm_started);
  EXPECT_TRUE(slotted.result.warm_started);
  ASSERT_TRUE(slotless.result.converged);
  ASSERT_TRUE(slotted.result.converged);
  EXPECT_EQ(slotted.wasted_iterations, slotless.wasted_iterations);
  ASSERT_EQ(slotted.result.x.size(), slotless.result.x.size());
  for (std::size_t i = 0; i < slotless.result.x.size(); ++i)
    EXPECT_NEAR(slotted.result.x[i], slotless.result.x[i], 1e-3)
        << "x[" << i << "]";
}

TEST(RecoveryLadderTest, ExhaustedLadderReportsEveryAttempt) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 100;
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  // primary, escalated, cold restart.
  EXPECT_EQ(recovered.attempts, 3u);
  EXPECT_GT(recovered.wasted_iterations, 0u);
}

TEST(RecoveryLadderTest, DisabledRecoverySurfacesTheFailure) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.enabled = false;
  recovery.forced_failures = 1;
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  EXPECT_EQ(recovered.attempts, 1u);
}

TEST(RecoveryLadderTest, ZeroIterationBudgetRecoversByEscalation) {
  const StructuredQp qp = chain_qp();
  LcpSolverConfig config;
  config.mmsim.max_iterations = 1;  // genuine failure, not injected
  RecoveryOptions recovery;
  recovery.budget_multiplier = 20000;
  const RecoveredSolve recovered = solve_with_recovery(qp, config, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kEscalated);
  ASSERT_TRUE(recovered.result.converged);
  EXPECT_EQ(recovered.wasted_iterations, 1u);
}

TEST(RecoveryLadderTest, EnvironmentResolvesForcedFailures) {
  const char* saved = std::getenv("MCH_FORCE_SOLVER_FAILURE");
  const std::string saved_value = saved ? saved : "";

  ::setenv("MCH_FORCE_SOLVER_FAILURE", "3", 1);
  EXPECT_EQ(resolve_recovery_options().forced_failures, 3u);
  // Explicit settings win over the ambient fault-injection variant.
  RecoveryOptions explicit_options;
  explicit_options.forced_failures = 7;
  EXPECT_EQ(resolve_recovery_options(explicit_options).forced_failures, 7u);
  ::unsetenv("MCH_FORCE_SOLVER_FAILURE");
  EXPECT_EQ(resolve_recovery_options().forced_failures, 0u);

  if (saved)
    ::setenv("MCH_FORCE_SOLVER_FAILURE", saved_value.c_str(), 1);
  else
    ::unsetenv("MCH_FORCE_SOLVER_FAILURE");
}

}  // namespace
}  // namespace mch::lcp
