#include "legal/mmsim_legalizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "baselines/abacus.h"
#include "db/legality.h"
#include "gen/generator.h"
#include "lcp/workspace.h"
#include "legal/model.h"
#include "legal/partition.h"

namespace mch::legal {
namespace {

db::Design small_design(std::size_t singles, std::size_t doubles,
                        double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;
  return gen::generate_random_design(singles, doubles, density, opts);
}

TEST(MmsimLegalizerTest, ProducesRowAlignedOverlapFreeContinuousResult) {
  db::Design design = small_design(300, 40, 0.6, 3);
  const RowAssignment rows = assign_rows(design);
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.iterations, 0u);

  // Continuous output: y on rows, x possibly off-site but overlap-free up
  // to the solver tolerance and subcell mismatch.
  db::LegalityOptions options;
  options.require_site_alignment = false;
  options.tolerance = 1e-2;
  const db::LegalityReport report = db::check_legality(design, options);
  EXPECT_EQ(report.overlaps, 0u) << report.summary();
  EXPECT_EQ(report.off_row, 0u);
  EXPECT_EQ(report.rail_mismatches, 0u);
}

TEST(MmsimLegalizerTest, LambdaSuppressesSubcellMismatch) {
  double previous = 1e18;
  for (const double lambda : {1.0, 100.0, 10000.0}) {
    db::Design design = small_design(100, 40, 0.8, 5);
    const RowAssignment rows = assign_rows(design);
    MmsimLegalizerOptions options;
    options.model.lambda = lambda;
    options.mmsim.tolerance = 1e-7;
    options.mmsim.max_iterations = 150000;
    const MmsimLegalizerStats stats =
        mmsim_legalize_continuous(design, rows, options);
    EXPECT_TRUE(stats.converged) << "lambda " << lambda;
    EXPECT_LE(stats.max_mismatch, previous + 1e-9) << "lambda " << lambda;
    previous = stats.max_mismatch;
  }
  // At the paper's λ = 1000+ the mismatch is far below a site width.
  EXPECT_LT(previous, 1e-2);
}

TEST(MmsimLegalizerTest, MatchesPlaceRowOnSingleHeightFixedRows) {
  // The §5.3 equivalence at the solver level, before any site snapping.
  db::Design mmsim_design = small_design(250, 0, 0.7, 7);
  db::Design placerow_design = mmsim_design;

  const RowAssignment rows = assign_rows(mmsim_design);
  MmsimLegalizerOptions options;
  options.mmsim.tolerance = 1e-9;
  options.mmsim.max_iterations = 200000;
  mmsim_legalize_continuous(mmsim_design, rows, options);

  baselines::placerow_legalize_fixed_rows(placerow_design,
                                          /*clamp_right_boundary=*/false);

  for (std::size_t i = 0; i < mmsim_design.num_cells(); ++i)
    EXPECT_NEAR(mmsim_design.cells()[i].x, placerow_design.cells()[i].x,
                1e-4)
        << "cell " << i;
}

TEST(MmsimLegalizerTest, StatsPopulated) {
  db::Design design = small_design(150, 20, 0.6, 11);
  const RowAssignment rows = assign_rows(design);
  const MmsimLegalizerStats stats = mmsim_legalize_continuous(design, rows);
  EXPECT_EQ(stats.num_variables, 150u + 2 * 20u);
  EXPECT_GT(stats.num_constraints, 0u);
  EXPECT_GT(stats.solve_seconds, 0.0);
  EXPECT_LT(stats.objective, 0.0);  // ½‖x‖²−xᵀx' < 0 near the targets
}

// Warm starting (tiered mode re-entering with a SolverWorkspace) is an
// iteration-count optimization, never a result-quality change: the warm
// solve must converge, to the same solution up to the solver tolerance.
TEST(MmsimLegalizerTest, TieredWarmStartConvergesToColdSolution) {
  db::Design cold_design = small_design(400, 60, 0.7, 19);
  const RowAssignment rows = assign_rows(cold_design);
  db::Design warm_design = cold_design;

  MmsimLegalizerOptions options;
  options.partition = PartitionMode::kTiered;
  options.mmsim.tolerance = 1e-7;
  options.mmsim.max_iterations = 150000;

  const MmsimLegalizerStats cold =
      mmsim_legalize_continuous(cold_design, rows, options);
  ASSERT_TRUE(cold.converged);

  // Re-entering through one workspace: the first call populates the warm
  // vectors, the second starts every component from its previous s.
  lcp::SolverWorkspace workspace;
  options.workspace = &workspace;
  db::Design scratch_design = warm_design;
  ASSERT_TRUE(
      mmsim_legalize_continuous(scratch_design, rows, options).converged);
  const MmsimLegalizerStats warm =
      mmsim_legalize_continuous(warm_design, rows, options);
  ASSERT_TRUE(warm.converged);

  // Same tolerance, same fixed point: positions agree to solver tolerance.
  for (std::size_t i = 0; i < cold_design.num_cells(); ++i) {
    EXPECT_NEAR(warm_design.cells()[i].x, cold_design.cells()[i].x, 1e-4)
        << "cell " << i;
  }
  // Warm starting from the converged s of an identical solve should not
  // take more iterations than the cold critical path.
  EXPECT_LE(warm.iterations, cold.iterations);
}

// A one-shot call without a workspace runs in the thread's default arena.
// Whatever that thread legalized before must not leak into the result: the
// arena's warm-start payloads from design A (same component shapes as B)
// would otherwise seed B's tiered component solves.
TEST(MmsimLegalizerTest, TieredOneShotIndependentOfThreadHistory) {
  db::Design design_b = small_design(400, 60, 0.7, 29);
  const RowAssignment rows = assign_rows(design_b);
  db::Design design_a = design_b;
  for (db::Cell& cell : design_a.cells())
    if (!cell.fixed) cell.gp_x += 0.5;

  MmsimLegalizerOptions options;
  options.partition = PartitionMode::kTiered;

  db::Design after_a = design_b;
  std::thread history([&] {
    mmsim_legalize_continuous(design_a, rows, options);
    mmsim_legalize_continuous(after_a, rows, options);
  });
  history.join();
  db::Design fresh = design_b;
  std::thread clean([&] { mmsim_legalize_continuous(fresh, rows, options); });
  clean.join();

  for (std::size_t i = 0; i < fresh.num_cells(); ++i)
    ASSERT_EQ(after_a.cells()[i].x, fresh.cells()[i].x) << "cell " << i;
}

TEST(MmsimLegalizerTest, PreservesCellOrderingWithinRows) {
  // The key property motivating the whole approach (paper Fig. 5(b)).
  db::Design design = small_design(500, 80, 0.8, 13);
  const RowAssignment rows = assign_rows(design);
  db::Design input = design;
  mmsim_legalize_continuous(design, rows);

  // For every pair of cells sharing a row with known GP order, the final
  // x order must match.
  for (std::size_t i = 0; i < design.num_cells(); ++i)
    for (std::size_t j = i + 1; j < design.num_cells(); ++j) {
      const db::Cell& a = design.cells()[i];
      const db::Cell& b = design.cells()[j];
      const bool share_row =
          rows[i] < rows[j] + b.height_rows && rows[j] < rows[i] + a.height_rows;
      if (!share_row) continue;
      const double gp_a = input.cells()[i].gp_x;
      const double gp_b = input.cells()[j].gp_x;
      if (gp_a == gp_b) continue;
      const bool gp_before = gp_a < gp_b || (gp_a == gp_b && i < j);
      if (gp_before)
        EXPECT_LE(a.x, b.x + 1e-6) << i << " vs " << j;
      else
        EXPECT_LE(b.x, a.x + 1e-6) << i << " vs " << j;
    }
}

// Jobs for solve_components over every component of `partition`, slot c of
// `workspace` backing component c — the layout the legalizer's tiered pass
// uses.
std::vector<ComponentSolveJob> every_component(
    const ConstraintPartition& partition, lcp::SolverWorkspace& workspace) {
  workspace.prepare(partition.num_components());
  std::vector<ComponentSolveJob> jobs(partition.num_components());
  for (std::size_t c = 0; c < jobs.size(); ++c)
    jobs[c] = {&partition.component_variables[c],
               &partition.component_constraints[c], &workspace.slot(c), c};
  return jobs;
}

void expect_failures_equal(const SolveFailure& a, const SolveFailure& b) {
  EXPECT_EQ(a.component, b.component);
  EXPECT_EQ(a.num_variables, b.num_variables);
  EXPECT_EQ(a.num_constraints, b.num_constraints);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.cells, b.cells);
}

// The tiered pass is solve_components over every component: a one-shot
// tiered legalize in a fresh arena writes the same solution bits and the
// same per-solver counts and iterations as calling it directly on the same
// prebuilt model and partition. Recovery is off on both sides so the
// fault-injection variant cannot send the legalizer into its escalated
// retry.
TEST(MmsimLegalizerTest, TieredPassIsSolveComponentsOverEveryComponent) {
  db::Design design = gen::generate_scale_design(
      gen::ScaleVariant::kObstacleHeavy, 1200, 17);
  const db::Design reference = design;
  const RowAssignment rows = assign_rows(design);
  ConstraintPartition partition;
  const LegalizationModel model = build_model(design, rows, {}, &partition);
  ASSERT_GT(partition.num_components(), 1u);

  lcp::SolverWorkspace legalizer_arena;
  lcp::Vector solution;
  MmsimLegalizerOptions options;
  options.partition = PartitionMode::kTiered;
  options.recovery.enabled = false;
  options.prebuilt_model = &model;
  options.prebuilt_partition = &partition;
  options.workspace = &legalizer_arena;
  options.solution_out = &solution;
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  ASSERT_TRUE(stats.converged);

  lcp::SolverWorkspace direct_arena;
  lcp::Vector x(model.num_variables(), 0.0);
  lcp::RecoveryOptions primary_only;
  primary_only.enabled = false;
  const ComponentSolveReport report =
      solve_components(reference, model, every_component(partition,
                                                         direct_arena),
                       options, primary_only, x);

  EXPECT_TRUE(report.converged);
  EXPECT_EQ(solution, x);
  EXPECT_EQ(stats.components_mmsim, report.components_mmsim);
  EXPECT_EQ(stats.components_psor, report.components_psor);
  EXPECT_EQ(stats.components_lemke, report.components_lemke);
  EXPECT_EQ(stats.components_mmsim + stats.components_psor +
                stats.components_lemke,
            partition.num_components());
  EXPECT_EQ(stats.iterations, report.iterations);
  EXPECT_EQ(stats.component_iterations, report.component_iterations);
  EXPECT_FALSE(stats.recovery.attempted());
}

// solve_components schedules its jobs largest-first but folds the report in
// job order, and every result depends only on its job's QP and slot: the
// same jobs handed over in reverse write the same x and the same report,
// with the failure records in (reversed) job order. A 3-iteration budget
// and a 64-wide Lemke rung make the ladder exhaust the large components
// and recover small ones, so failures, clamps and recoveries all show.
TEST(MmsimLegalizerTest, SolveComponentsIndependentOfJobOrder) {
  db::Design design = gen::generate_scale_design(
      gen::ScaleVariant::kObstacleHeavy, 1200, 17);
  const RowAssignment rows = assign_rows(design);
  ConstraintPartition partition;
  const LegalizationModel model = build_model(design, rows, {}, &partition);

  MmsimLegalizerOptions options;
  options.mmsim.max_iterations = 3;
  lcp::RecoveryOptions ladder;
  ladder.lemke_fallback_max_size = 64;

  lcp::SolverWorkspace forward_arena;
  lcp::Vector forward_x(model.num_variables(), 0.0);
  const ComponentSolveReport forward =
      solve_components(design, model, every_component(partition,
                                                      forward_arena),
                       options, ladder, forward_x);

  lcp::SolverWorkspace reverse_arena;
  std::vector<ComponentSolveJob> reversed =
      every_component(partition, reverse_arena);
  std::reverse(reversed.begin(), reversed.end());
  lcp::Vector reverse_x(model.num_variables(), 0.0);
  const ComponentSolveReport reverse =
      solve_components(design, model, reversed, options, ladder, reverse_x);

  ASSERT_FALSE(forward.recovery.failures.empty());
  EXPECT_GT(forward.recovery.recovered_components, 0u);
  EXPECT_EQ(forward_x, reverse_x);
  EXPECT_EQ(forward.iterations, reverse.iterations);
  EXPECT_EQ(forward.component_iterations, reverse.component_iterations);
  EXPECT_EQ(forward.components_mmsim, reverse.components_mmsim);
  EXPECT_EQ(forward.components_psor, reverse.components_psor);
  EXPECT_EQ(forward.components_lemke, reverse.components_lemke);
  EXPECT_EQ(forward.warm_started, reverse.warm_started);
  EXPECT_EQ(forward.converged, reverse.converged);
  EXPECT_EQ(forward.recovery.component_ladders,
            reverse.recovery.component_ladders);
  EXPECT_EQ(forward.recovery.ladder_attempts,
            reverse.recovery.ladder_attempts);
  EXPECT_EQ(forward.recovery.extra_iterations,
            reverse.recovery.extra_iterations);
  EXPECT_EQ(forward.recovery.recovered_components,
            reverse.recovery.recovered_components);
  EXPECT_EQ(forward.recovery.clamped_components,
            reverse.recovery.clamped_components);
  EXPECT_EQ(forward.recovery.clamped_cells, reverse.recovery.clamped_cells);

  // Failures (and the clamped cells they list) follow job order.
  const std::vector<SolveFailure>& f = forward.recovery.failures;
  const std::vector<SolveFailure>& r = reverse.recovery.failures;
  ASSERT_EQ(f.size(), r.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    SCOPED_TRACE(i);
    expect_failures_equal(f[i], r[f.size() - 1 - i]);
    if (i > 0) {
      EXPECT_LT(f[i - 1].component, f[i].component);
    }
  }
  std::vector<std::size_t> expected_cells;
  for (auto it = f.rbegin(); it != f.rend(); ++it)
    expected_cells.insert(expected_cells.end(), it->cells.begin(),
                          it->cells.end());
  EXPECT_EQ(reverse.clamped_cells, expected_cells);
}

// With recovery disabled an unconverged tiered component is snap-clamped
// like every other solve_components failure, never shipped as an iterate:
// a 1-iteration budget (MMSIM never stops before its second iteration)
// leaves every cell at its gp_x clamped into the chip.
TEST(MmsimLegalizerTest, TieredUnconvergedComponentsAreSnapClamped) {
  db::Design design = small_design(300, 40, 0.7, 31);
  const db::Design input = design;
  const RowAssignment rows = assign_rows(design);

  lcp::SolverWorkspace arena;
  MmsimLegalizerOptions options;
  options.partition = PartitionMode::kTiered;
  options.recovery.enabled = false;
  options.mmsim.max_iterations = 1;
  options.policy.lemke_max_size = 0;  // every component on MMSIM
  options.policy.psor_for_unconstrained = false;
  options.workspace = &arena;
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);

  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_EQ(stats.components_mmsim, stats.num_components);
  EXPECT_EQ(stats.component_iterations, stats.num_components);
  EXPECT_FALSE(stats.recovery.attempted());
  const double chip_width = design.chip().width();
  for (std::size_t i = 0; i < design.num_cells(); ++i) {
    const db::Cell& cell = input.cells()[i];
    if (cell.fixed) continue;
    const double snap =
        std::clamp(cell.gp_x, 0.0, std::max(0.0, chip_width - cell.width));
    EXPECT_DOUBLE_EQ(design.cells()[i].x, snap) << "cell " << i;
  }
}

}  // namespace
}  // namespace mch::legal
