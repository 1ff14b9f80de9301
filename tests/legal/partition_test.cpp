// Partitioner tests: component membership on hand-built designs whose rows
// are split by obstacles, sub-problem extraction, and the solve-invariance
// guarantees of the partitioned legalizer (lockstep == monolithic bitwise;
// tiered == monolithic to solver tolerance).
#include "legal/partition.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "gen/generator.h"
#include "legal/mmsim_legalizer.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "util/rng.h"

namespace mch::legal {
namespace {

db::Chip two_row_chip() {
  db::Chip chip;
  chip.num_rows = 2;
  chip.num_sites = 100;
  chip.site_width = 1.0;
  chip.row_height = 10.0;
  return chip;
}

void add_movable(db::Design& design, double width, double gp_x, double gp_y) {
  db::Cell cell;
  cell.width = width;
  cell.gp_x = gp_x;
  cell.gp_y = gp_y;
  design.add_cell(cell);
}

void add_obstacle(db::Design& design, double x, double y, double width) {
  db::Cell cell;
  cell.fixed = true;
  cell.width = width;
  cell.x = x;
  cell.y = y;
  cell.gp_x = x;
  cell.gp_y = y;
  design.add_cell(cell);
}

/// Row 0: a, b | obstacle | c, d.  Row 1: e, f.  Three components.
db::Design split_row_design() {
  db::Design design(two_row_chip());
  add_movable(design, 3.0, 5.0, 0.0);    // a → var 0
  add_movable(design, 3.0, 12.0, 0.0);   // b → var 1
  add_movable(design, 3.0, 40.0, 0.0);   // c → var 2 (right of obstacle)
  add_movable(design, 3.0, 48.0, 0.0);   // d → var 3
  add_movable(design, 3.0, 8.0, 10.0);   // e → var 4
  add_movable(design, 3.0, 15.0, 10.0);  // f → var 5
  add_obstacle(design, 20.0, 0.0, 10.0);
  return design;
}

TEST(PartitionTest, ObstacleSplitsRowIntoComponents) {
  db::Design design = split_row_design();
  const RowAssignment rows = assign_rows(design);
  const LegalizationModel model = build_model(design, rows);
  ASSERT_EQ(model.num_variables(), 6u);
  // Constraints: a-b chain, obstacle bound on c, c-d chain, e-f chain.
  ASSERT_EQ(model.qp.num_constraints(), 4u);

  const ConstraintPartition partition = partition_model(model);
  ASSERT_EQ(partition.num_components(), 3u);
  EXPECT_EQ(partition.variable_component,
            (std::vector<mch::index_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(partition.component_variables[0],
            (std::vector<mch::index_t>{0, 1}));
  EXPECT_EQ(partition.component_variables[1],
            (std::vector<mch::index_t>{2, 3}));
  EXPECT_EQ(partition.component_variables[2],
            (std::vector<mch::index_t>{4, 5}));
  EXPECT_EQ(partition.constraint_component,
            (std::vector<mch::index_t>{0, 1, 1, 2}));
  EXPECT_EQ(partition.component_constraints[1],
            (std::vector<mch::index_t>{1, 2}));

  EXPECT_EQ(partition.component_size(0), 3u);  // 2 vars + 1 constraint
  EXPECT_EQ(partition.component_size(1), 4u);
  EXPECT_EQ(partition.max_component_size(), 4u);
  EXPECT_DOUBLE_EQ(partition.mean_component_size(), 10.0 / 3.0);
}

TEST(PartitionTest, TallCellBridgesRows) {
  db::Design design = split_row_design();
  // A double-height cell left of the obstacle chains into row 0 (with a, b)
  // and row 1 (with e, f), merging their components.
  db::Cell tall;
  tall.width = 2.0;
  tall.height_rows = 2;
  tall.bottom_rail = db::RailType::kVss;
  tall.gp_x = 2.0;
  tall.gp_y = 0.0;
  design.add_cell(tall);

  const RowAssignment rows = assign_rows(design);
  const LegalizationModel model = build_model(design, rows);
  const ConstraintPartition partition = partition_model(model);
  ASSERT_EQ(partition.num_components(), 2u);
  // {tall, a, b, e, f} together; {c, d} still isolated by the obstacle.
  const std::size_t cd_component = partition.variable_component[2];
  EXPECT_EQ(partition.component_variables[cd_component],
            (std::vector<mch::index_t>{2, 3}));
  EXPECT_EQ(partition.variable_component[0],
            partition.variable_component[4]);
}

TEST(PartitionTest, ComponentProblemExtraction) {
  db::Design design = split_row_design();
  const RowAssignment rows = assign_rows(design);
  const LegalizationModel model = build_model(design, rows);
  const ConstraintPartition partition = partition_model(model);

  // Component {c, d}: the obstacle bound on c plus the c-d chain.
  const ComponentProblem component = model.component_problem(
      partition.component_variables[1], partition.component_constraints[1]);
  EXPECT_EQ(component.variables, (std::vector<mch::index_t>{2, 3}));
  EXPECT_EQ(component.constraints, (std::vector<mch::index_t>{1, 2}));
  ASSERT_EQ(component.qp.num_variables(), 2u);
  ASSERT_EQ(component.qp.num_constraints(), 2u);
  EXPECT_EQ(component.qp.p, (lcp::Vector{-40.0, -48.0}));
  // Row 0: obstacle bound x_c ≥ 30 (obstacle end). Row 1: x_d − x_c ≥ w_c.
  EXPECT_DOUBLE_EQ(component.qp.B.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(component.qp.B.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(component.qp.B.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(component.qp.B.at(1, 1), 1.0);
  EXPECT_EQ(component.qp.b, (lcp::Vector{30.0, 3.0}));
  // Global rows 1 and 2 are adjacent, so only the leading break is set.
  EXPECT_EQ(component.schur_coupling_breaks,
            (std::vector<bool>{true, false}));
}

db::Design invariance_design() {
  gen::GeneratorOptions options;
  options.seed = 11;
  options.nets_per_cell = 0.0;
  options.fixed_macros = 6;
  return gen::generate_random_design(300, 40, 0.6, options);
}

MmsimLegalizerStats run_mode(const db::Design& base, PartitionMode mode,
                             db::Design& out) {
  out = base;
  const RowAssignment rows = assign_rows(out);
  MmsimLegalizerOptions options;
  options.partition = mode;
  return mmsim_legalize_continuous(out, rows, options);
}

// The tentpole guarantee: the lockstep partitioned solve reproduces the
// monolithic iterates exactly — positions bitwise equal, same iteration
// count, objective identical to rounding (≤ 1e-9).
TEST(PartitionTest, LockstepMatchesMonolithicBitwise) {
  const db::Design base = invariance_design();
  db::Design mono, part;
  const MmsimLegalizerStats off = run_mode(base, PartitionMode::kOff, mono);
  const MmsimLegalizerStats match =
      run_mode(base, PartitionMode::kMatch, part);

  EXPECT_EQ(off.num_components, 0u);
  ASSERT_GT(match.num_components, 1u);
  EXPECT_EQ(match.components_mmsim, match.num_components);
  EXPECT_EQ(off.iterations, match.iterations);
  EXPECT_EQ(off.converged, match.converged);
  EXPECT_NEAR(off.objective, match.objective, 1e-9);
  EXPECT_EQ(off.max_mismatch, match.max_mismatch);
  ASSERT_EQ(mono.num_cells(), part.num_cells());
  for (std::size_t c = 0; c < mono.num_cells(); ++c) {
    EXPECT_EQ(mono.cells()[c].x, part.cells()[c].x) << "cell " << c;
    EXPECT_EQ(mono.cells()[c].y, part.cells()[c].y) << "cell " << c;
  }
}

TEST(PartitionTest, TieredMatchesMonolithicWithinTolerance) {
  const db::Design base = invariance_design();
  db::Design mono, part;
  const MmsimLegalizerStats off = run_mode(base, PartitionMode::kOff, mono);
  const MmsimLegalizerStats tiered =
      run_mode(base, PartitionMode::kTiered, part);

  ASSERT_GT(tiered.num_components, 1u);
  EXPECT_TRUE(tiered.converged);
  EXPECT_EQ(tiered.components_mmsim, tiered.num_components);
  // Independent termination: small components stop early, so the summed
  // iteration count beats every-component-runs-to-the-global-stop.
  EXPECT_LT(tiered.component_iterations,
            off.iterations * tiered.num_components);
  EXPECT_NEAR(tiered.objective, off.objective,
              1e-6 * (1.0 + std::abs(off.objective)));
  for (std::size_t c = 0; c < mono.num_cells(); ++c)
    EXPECT_NEAR(mono.cells()[c].x, part.cells()[c].x, 1e-2) << "cell " << c;
}

TEST(PartitionTest, EnvResolvesAutoMode) {
  const char* saved = std::getenv("MCH_PARTITION");
  const std::string saved_value = saved ? saved : "";

  const db::Design base = invariance_design();
  db::Design scratch;

  ::setenv("MCH_PARTITION", "off", 1);
  EXPECT_EQ(run_mode(base, PartitionMode::kAuto, scratch).num_components,
            0u);
  ::setenv("MCH_PARTITION", "tiered", 1);
  const MmsimLegalizerStats tiered =
      run_mode(base, PartitionMode::kAuto, scratch);
  EXPECT_GT(tiered.num_components, 1u);
  EXPECT_EQ(tiered.components_mmsim, tiered.num_components);
  ::unsetenv("MCH_PARTITION");
  EXPECT_GT(run_mode(base, PartitionMode::kAuto, scratch).num_components,
            1u);  // default: match

  if (saved)
    ::setenv("MCH_PARTITION", saved_value.c_str(), 1);
  else
    ::unsetenv("MCH_PARTITION");
}

void expect_same_partition(const ConstraintPartition& a,
                           const ConstraintPartition& b) {
  EXPECT_EQ(a.variable_component, b.variable_component);
  EXPECT_EQ(a.constraint_component, b.constraint_component);
  EXPECT_EQ(a.component_variables, b.component_variables);
  EXPECT_EQ(a.component_constraints, b.component_constraints);
}

/// Applies an ECO batch the way the service layer does — db helpers plus
/// delta tracking — and returns the delta. `rows` is updated in place.
PartitionDelta apply_eco(db::Design& design, RowAssignment& rows,
                         const std::vector<std::size_t>& moves,
                         const std::vector<double>& gp_x,
                         const std::vector<double>& gp_y) {
  PartitionDelta delta;
  delta.affected_rows.assign(design.chip().num_rows, 0);
  const auto mark = [&](std::size_t first, std::size_t count) {
    for (std::size_t r = first;
         r < std::min(first + count, design.chip().num_rows); ++r)
      delta.affected_rows[r] = 1;
  };
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const std::size_t id = moves[i];
    mark(rows[id], design.cells()[id].height_rows);
    design.move_cell(id, gp_x[i], gp_y[i]);
    rows[id] = design.nearest_legal_row(design.cells()[id]);
    mark(rows[id], design.cells()[id].height_rows);
  }
  delta.touched_cells.assign(design.num_cells(), 0);
  for (const std::size_t id : moves) delta.touched_cells[id] = 1;
  return delta;
}

TEST(PartitionTest, RepartitionMatchesScratchOnHandBuiltMove) {
  db::Design design = split_row_design();
  RowAssignment rows = assign_rows(design);
  const LegalizationModel before = build_model(design, rows);
  const ConstraintPartition part_before = partition_model(before);
  ASSERT_EQ(part_before.num_components(), 3u);

  // Move c from right of the obstacle into row 1: components merge.
  const PartitionDelta delta =
      apply_eco(design, rows, {2}, {8.0}, {10.0});
  const LegalizationModel after = build_model(design, rows);
  expect_same_partition(
      repartition_model(after, before, part_before, delta),
      partition_model(after));
}

TEST(PartitionTest, RepartitionMatchesScratchOnRandomEcoStream) {
  gen::GeneratorOptions options;
  options.seed = 31;
  db::Design design = gen::generate_random_design(1800, 200, 0.7, options);
  RowAssignment rows = assign_rows(design);
  LegalizationModel model = build_model(design, rows);
  ConstraintPartition partition = partition_model(model);
  ASSERT_GT(partition.num_components(), 1u);

  Rng rng(57);
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<std::size_t> moves;
    std::vector<double> gp_x;
    std::vector<double> gp_y;
    while (moves.size() < 7) {
      const auto id = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(design.num_cells()) - 1));
      if (design.cells()[id].fixed) continue;
      moves.push_back(id);
      gp_x.push_back(design.cells()[id].gp_x +
                     rng.normal(0.0, 8.0 * design.chip().site_width));
      gp_y.push_back(design.cells()[id].gp_y +
                     rng.normal(0.0, 1.5 * design.chip().row_height));
    }
    const PartitionDelta delta = apply_eco(design, rows, moves, gp_x, gp_y);
    LegalizationModel after = build_model(design, rows);
    const ConstraintPartition scratch = partition_model(after);
    expect_same_partition(
        repartition_model(after, model, partition, delta), scratch);
    model = std::move(after);
    partition = scratch;
  }
}

}  // namespace
}  // namespace mch::legal
