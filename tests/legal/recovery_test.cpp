// Fault-injection tests of the legalizer's non-convergence escalation
// ladder: every rung is forced via RecoveryOptions::forced_failures (the
// same knob the MCH_FORCE_SOLVER_FAILURE .recovery ctest variant sets), and
// the degenerate-design generator supplies genuinely pathological inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <string>

#include "db/legality.h"
#include "gen/generator.h"
#include "legal/mmsim_legalizer.h"
#include "legal/row_assign.h"

namespace mch::legal {
namespace {

db::Design small_design(std::size_t singles, std::size_t doubles,
                        double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;
  return gen::generate_random_design(singles, doubles, density, opts);
}

/// Options with fault injection pinned to `forced` failed attempts.
/// forced > 0 also shields the test from the ambient environment variable
/// (explicit settings win in resolve_recovery_options).
MmsimLegalizerOptions forced_failure_options(std::size_t forced) {
  MmsimLegalizerOptions options;
  options.recovery.forced_failures = forced;
  return options;
}

TEST(RecoveryLadderTest, HappyPathLeavesRecoveryUntouched) {
  db::Design design = small_design(200, 30, 0.6, 11);
  const RowAssignment rows = assign_rows(design);
  // forced_failures = 0 would let MCH_FORCE_SOLVER_FAILURE leak in under
  // the .recovery variant, which is exactly what this test must not see —
  // so it disables recovery injection via an explicit no-op ladder instead.
  MmsimLegalizerOptions options;
  options.recovery.enabled = true;
  options.recovery.forced_failures = 0;
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_TRUE(stats.converged);
  EXPECT_FALSE(stats.recovery.attempted());
  EXPECT_EQ(stats.recovery.escalations, 0u);
  EXPECT_EQ(stats.recovery.component_ladders, 0u);
  EXPECT_FALSE(stats.recovery.audit_ran);
  EXPECT_TRUE(stats.recovery.failures.empty());
}

TEST(RecoveryLadderTest, FirstFailureRecoversByWholeSolveEscalation) {
  db::Design reference_design = small_design(200, 30, 0.6, 11);
  db::Design design = reference_design;
  const RowAssignment rows = assign_rows(design);
  const RowAssignment reference_rows = assign_rows(reference_design);

  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, forced_failure_options(1));
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.recovery.escalations, 1u);
  EXPECT_EQ(stats.recovery.component_ladders, 0u);
  EXPECT_EQ(stats.recovery.clamped_components, 0u);
  EXPECT_GT(stats.recovery.extra_iterations, 0u);
  EXPECT_TRUE(stats.recovery.audit_ran);  // recovery engaged → audited
  // The audited result is continuous, overlap-free output: no overlaps or
  // off-row placements at the audit tolerance. (audit_legal itself may be
  // false for healthy results too — the relaxed model has no right-boundary
  // constraint, so outside_chip spill is legitimate pre-snap.)
  EXPECT_FALSE(stats.recovery.audit_summary.empty());

  // The escalated retry converges to the same optimum (different θ/γ only
  // change the trajectory, not the fixed point).
  MmsimLegalizerOptions clean;
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  mmsim_legalize_continuous(reference_design, reference_rows, clean);
  for (std::size_t c = 0; c < design.num_cells(); ++c)
    EXPECT_NEAR(design.cells()[c].x, reference_design.cells()[c].x, 1e-2)
        << "cell " << c;
}

TEST(RecoveryLadderTest, SecondFailureDescendsToComponentLadders) {
  db::Design design = small_design(200, 30, 0.6, 11);
  const RowAssignment rows = assign_rows(design);
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, forced_failure_options(2));
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.recovery.escalations, 1u);
  EXPECT_GT(stats.num_components, 0u);  // kOff partitions lazily on descent
  EXPECT_EQ(stats.recovery.component_ladders, stats.num_components);
  EXPECT_GE(stats.recovery.ladder_attempts, stats.num_components);
  EXPECT_EQ(stats.recovery.clamped_components, 0u);
  EXPECT_TRUE(stats.recovery.audit_ran);
}

TEST(RecoveryLadderTest, ExhaustedLadderClampsToSnapPositions) {
  db::Design design = small_design(60, 10, 0.5, 13);
  const RowAssignment rows = assign_rows(design);
  // Enough forced failures to exhaust every rung of every component ladder.
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, forced_failure_options(999));
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.recovery.escalations, 1u);
  EXPECT_GT(stats.recovery.component_ladders, 0u);
  EXPECT_EQ(stats.recovery.clamped_components, stats.num_components);
  EXPECT_GT(stats.recovery.clamped_cells, 0u);
  ASSERT_EQ(stats.recovery.failures.size(), stats.num_components);

  // Structured records: every failure names its component, its attempts,
  // and the clamped cells; the summary is renderable.
  std::size_t recorded_cells = 0;
  for (const SolveFailure& failure : stats.recovery.failures) {
    EXPECT_NE(failure.component, SolveFailure::kMonolithic);
    EXPECT_GT(failure.attempts, 0u);
    EXPECT_FALSE(failure.cells.empty());
    EXPECT_FALSE(failure.summary().empty());
    recorded_cells += failure.cells.size();
  }
  EXPECT_EQ(recorded_cells, stats.recovery.clamped_cells);

  // Degrade contract: clamped cells sit at row-assigned snap positions —
  // gp_x clamped into the chip, y on the assigned row — never at an
  // unconverged iterate.
  const db::Chip& chip = design.chip();
  for (const SolveFailure& failure : stats.recovery.failures) {
    for (const std::size_t c : failure.cells) {
      const db::Cell& cell = design.cells()[c];
      const double snap_x = std::clamp(
          cell.gp_x, 0.0, std::max(0.0, chip.width() - cell.width));
      EXPECT_DOUBLE_EQ(cell.x, snap_x) << "cell " << c;
      EXPECT_DOUBLE_EQ(cell.y, chip.row_y(rows[c])) << "cell " << c;
    }
  }

  // The audit must have run — an exhausted ladder never ships unverified.
  EXPECT_TRUE(stats.recovery.audit_ran);
  EXPECT_FALSE(stats.recovery.audit_summary.empty());
}

TEST(RecoveryLadderTest, GenuineBudgetFailureRecoversWithoutInjection) {
  db::Design design = small_design(200, 30, 0.7, 17);
  const RowAssignment rows = assign_rows(design);
  MmsimLegalizerOptions options;
  options.mmsim.max_iterations = 1;  // genuine non-convergence
  options.recovery.budget_multiplier = 100000;
  options.recovery.forced_failures = 0;
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.recovery.escalations, 1u);
  EXPECT_TRUE(stats.recovery.audit_ran);
}

// Satellite: each solve driver surfaces converged == false through the
// stats when recovery is disabled and the budget is one iteration.
class SurfacesFailurePerMode
    : public ::testing::TestWithParam<PartitionMode> {};

TEST_P(SurfacesFailurePerMode, OneIterationBudgetSurfacesNonConvergence) {
  db::Design design = small_design(150, 20, 0.7, 19);
  const RowAssignment rows = assign_rows(design);
  MmsimLegalizerOptions options;
  options.partition = GetParam();
  options.mmsim.max_iterations = 1;
  options.recovery.enabled = false;
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_FALSE(stats.recovery.attempted());
  // The failure gate still audits the (unconverged) write-back.
  EXPECT_TRUE(stats.recovery.audit_ran);
}

INSTANTIATE_TEST_SUITE_P(AllModes, SurfacesFailurePerMode,
                         ::testing::Values(PartitionMode::kOff,
                                           PartitionMode::kMatch,
                                           PartitionMode::kTiered),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- degenerate-design generator -------------------------------------------

TEST(DegenerateDesignTest, ModesAreDeterministicAndWellFormed) {
  for (const gen::DegenerateMode mode :
       {gen::DegenerateMode::kNearSingularCoupling,
        gen::DegenerateMode::kInfeasibleRowCapacity,
        gen::DegenerateMode::kObstacleSaturatedRows}) {
    const db::Design a = gen::generate_degenerate_design(mode, 24, 5);
    const db::Design b = gen::generate_degenerate_design(mode, 24, 5);
    ASSERT_GE(a.num_cells(), 24u) << gen::to_string(mode);
    ASSERT_EQ(a.num_cells(), b.num_cells());
    for (std::size_t c = 0; c < a.num_cells(); ++c) {
      EXPECT_EQ(a.cells()[c].x, b.cells()[c].x);
      EXPECT_EQ(a.cells()[c].gp_x, a.cells()[c].x);  // committed as GP
    }
    // Pathological by construction: the GP input is not legal.
    const db::LegalityReport report = db::check_legality(a);
    EXPECT_FALSE(report.legal()) << gen::to_string(mode);
  }
}

TEST(DegenerateDesignTest, InfeasibleRowCapacityExceedsChipCapacity) {
  const db::Design design = gen::generate_degenerate_design(
      gen::DegenerateMode::kInfeasibleRowCapacity, 32, 7);
  double movable_area = 0.0;
  for (const db::Cell& cell : design.cells())
    movable_area += cell.width * static_cast<double>(cell.height_rows) *
                    design.chip().row_height;
  const double chip_area = design.chip().width() *
                           static_cast<double>(design.chip().num_rows) *
                           design.chip().row_height;
  EXPECT_GT(movable_area, 1.2 * chip_area);
}

TEST(DegenerateDesignTest, LadderDegradesGracefullyOnPathologicalInputs) {
  // The recovery contract on designs that genuinely cannot legalize: the
  // solve completes (no throw), and if anything failed, it is audited and
  // recorded rather than silent.
  for (const gen::DegenerateMode mode :
       {gen::DegenerateMode::kNearSingularCoupling,
        gen::DegenerateMode::kInfeasibleRowCapacity,
        gen::DegenerateMode::kObstacleSaturatedRows}) {
    db::Design design = gen::generate_degenerate_design(mode, 24, 3);
    const RowAssignment rows = assign_rows(design);
    MmsimLegalizerOptions options;
    options.mmsim.max_iterations = 2000;  // modest budget
    const MmsimLegalizerStats stats =
        mmsim_legalize_continuous(design, rows, options);
    if (!stats.converged || stats.recovery.attempted()) {
      EXPECT_TRUE(stats.recovery.audit_ran) << gen::to_string(mode);
      EXPECT_EQ(stats.recovery.clamped_cells >= 1,
                !stats.recovery.failures.empty())
          << gen::to_string(mode);
    }
    // Clamped cells (if any) are snapped inside the chip, never left at an
    // unconverged iterate. (Non-clamped continuous output may legitimately
    // spill past the right boundary — the allocation stage repairs that.)
    for (const SolveFailure& failure : stats.recovery.failures) {
      for (const std::size_t c : failure.cells) {
        const db::Cell& cell = design.cells()[c];
        EXPECT_GE(cell.x, -1e-9) << gen::to_string(mode);
        EXPECT_LE(cell.x + cell.width, design.chip().width() + 1e-9)
            << gen::to_string(mode);
      }
    }
  }
}

}  // namespace
}  // namespace mch::legal
