#include "legal/mmsim_legalizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "baselines/abacus.h"
#include "db/legality.h"
#include "gen/generator.h"

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

TEST(MmsimLegalizerTest, AutoThetaConvergesToSameSolution) {
  db::Design a = small_design(120, 20, 0.6, 9);
  db::Design b = a;
  const RowAssignment rows_a = assign_rows(a);
  const RowAssignment rows_b = assign_rows(b);

  MmsimLegalizerOptions fixed;
  fixed.mmsim.tolerance = 1e-8;
  const MmsimLegalizerStats sa = mmsim_legalize_continuous(a, rows_a, fixed);

  MmsimLegalizerOptions automatic = fixed;
  automatic.auto_theta = true;
  const MmsimLegalizerStats sb =
      mmsim_legalize_continuous(b, rows_b, automatic);

  EXPECT_TRUE(sa.converged);
  EXPECT_TRUE(sb.converged);
  EXPECT_GT(sb.theta_used, 0.0);
  for (std::size_t i = 0; i < a.num_cells(); ++i)
    EXPECT_NEAR(a.cells()[i].x, b.cells()[i].x, 1e-4);
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

}  // namespace
}  // namespace mch::legal
