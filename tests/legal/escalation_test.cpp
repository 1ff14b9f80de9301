// The default lockstep driver's escalated retry, reached without fault
// injection. On a 4096-cell obstacle design (seed 7, 16 fixed macros) the
// first kMatch solve hits its iteration cap and the whole-solve retry with
// escalated parameters converges, so the per-component ladder is never
// reached. The full flow ends legal, at the tiered driver's displacement.
#include <gtest/gtest.h>

#include <cstddef>

#include "eval/metrics.h"
#include "gen/generator.h"
#include "legal/flow.h"

namespace mch::legal {
namespace {

db::Design obstacle_design() {
  constexpr std::size_t kCells = 4096;
  gen::GeneratorOptions options;
  options.seed = 7;
  options.nets_per_cell = 0.0;
  options.fixed_macros = kCells / 250;
  return gen::generate_random_design(kCells - kCells / 10, kCells / 10, 0.6,
                                     options);
}

FlowResult legalize_with(db::Design& design, PartitionMode mode) {
  FlowOptions options;
  options.solver.partition = mode;
  return legalize(design, options);
}

TEST(EscalationTest, MatchConvergesOnEscalatedRetryAtTieredDisplacement) {
  db::Design match_design = obstacle_design();
  const FlowResult match = legalize_with(match_design, PartitionMode::kMatch);
  EXPECT_EQ(match.solver.recovery.escalations, 1u);
  EXPECT_EQ(match.solver.recovery.component_ladders, 0u);
  EXPECT_TRUE(match.solver.converged);
  EXPECT_TRUE(match.solver.recovery.audit_ran);
  EXPECT_TRUE(match.legal) << match.legality.summary();

  db::Design tiered_design = obstacle_design();
  const FlowResult tiered =
      legalize_with(tiered_design, PartitionMode::kTiered);
  EXPECT_FALSE(tiered.solver.recovery.attempted());
  EXPECT_TRUE(tiered.legal) << tiered.legality.summary();

  const double want = eval::displacement(tiered_design).mean_sites;
  EXPECT_NEAR(eval::displacement(match_design).mean_sites, want,
              1e-9 * want);
}

}  // namespace
}  // namespace mch::legal
