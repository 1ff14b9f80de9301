// Synthetic mixed-cell-height design generator.
//
// Substitutes for the (non-public) GP results of the paper's benchmark set.
// The construction mirrors how real global placements look to a legalizer:
//
//   1. Cell population: single-height cells with widths drawn from a small
//      discrete range of sites; double-height cells with halved widths (the
//      paper's modification rule); optional triple/quad-height cells for the
//      generality experiments.
//   2. Chip sizing: near-square chip dimensioned so that total cell area /
//      chip area equals the requested density.
//   3. Base placement: a legal Tetris-style packing sweep — each cell takes
//      the leftmost cursor among a few randomly sampled rail-compatible
//      rows, with exponential random gaps sized so the packing fills the
//      row width. This yields a spread-out, legal-like configuration with a
//      well-defined cell ordering.
//   4. GP perturbation: Gaussian noise on x (a few sites) and y (a fraction
//      of a row) turns the base into a realistic global placement: locally
//      overlapping, off-grid, off-row — exactly what a legalizer receives.
//   5. Netlist: spatially local nets (2–5 pins on nearby cells via a bucket
//      grid), matching the post-GP locality that makes legalization ΔHPWL
//      small in the paper.
//
// Fully deterministic for a given (spec, options.seed).
#pragma once

#include <cstdint>

#include "db/design.h"
#include "gen/spec.h"

namespace mch::gen {

struct GeneratorOptions {
  /// Fraction of the spec's cell counts to generate (1.0 = full scale).
  /// Benches default to 0.05 so the whole suite runs in seconds; the shapes
  /// of all experiments are scale-invariant (see EXPERIMENTS.md).
  double scale = 1.0;
  std::uint64_t seed = 1;

  double site_width = 1.0;
  double row_height = 12.0;  ///< ISPD-2015-like row height : site width ratio

  /// Single-height cell widths are uniform in [min, max] sites; double-
  /// height cells get half the drawn width (the paper's benchmark rule).
  int min_width_sites = 2;
  int max_width_sites = 12;

  /// GP perturbation magnitudes. Real global placements are *near-legal*:
  /// row loads stay balanced and overlaps are local. Large y-noise would
  /// overload random rows, which no fixed-row legalizer (the paper's
  /// included) can absorb at high density — so the defaults keep the
  /// perturbation a fraction of a row.
  double noise_x_sites = 1.5;  ///< σ of GP x perturbation, in site widths
  double noise_y_rows = 0.1;   ///< σ of GP y perturbation, in row heights

  /// Relative spread of the inter-cell gaps in the base packing. Real GP
  /// density is smooth, so gaps are near-uniform (low variance); 1.0 would
  /// give fully random (exponential-like) gaps, which produce local
  /// overloads no real global placement exhibits.
  double gap_jitter = 0.5;

  double nets_per_cell = 1.1;
  int min_pins = 2;
  int max_pins = 5;

  /// Extensions beyond the paper's 10%-double benchmarks: fractions of the
  /// single-cell budget converted to triple/quadruple height.
  double triple_fraction = 0.0;
  double quad_fraction = 0.0;

  /// Number of candidate rows sampled per cell during the packing sweep.
  int row_candidates = 8;

  /// Fixed macros (obstacles). The paper's benchmarks dropped the contest's
  /// fence regions/blockages, so the suite default is 0; obstacle-aware
  /// experiments (bench/ablation_obstacles) raise it. Macros are placed
  /// first at random non-overlapping row/site-aligned spots; the packing
  /// sweep and the GP synthesis both avoid them. Chip sizing accounts for
  /// macro area so the *effective* movable density stays at `density`.
  std::size_t fixed_macros = 0;
  std::size_t macro_height_rows = 6;
  double macro_width_sites = 40.0;
};

/// Generates the design for a Table-1 benchmark spec.
db::Design generate_design(const BenchmarkSpec& spec,
                           const GeneratorOptions& options = {});

/// Generates an ad-hoc design with explicit cell counts and density.
db::Design generate_random_design(std::size_t num_single,
                                  std::size_t num_double, double density,
                                  const GeneratorOptions& options = {});

/// Pathological inputs for the solver-recovery fault-injection tests —
/// conditions generate_random_design deliberately avoids (its GP synthesis
/// stays near-legal), handcrafted so every rung of the escalation ladder
/// can be exercised on something other than a healthy design.
enum class DegenerateMode {
  /// Triple-height cells stacked into one dense column: every spacing
  /// constraint in every coupled row is active at the optimum and the rows
  /// all share cells, so the KKT system is one big stiff component.
  kNearSingularCoupling,
  /// Total movable width ≈ 1.7× the whole chip's site capacity: no legal
  /// placement exists, and the spacing LCP is pushed against an infeasible
  /// constraint set.
  kInfeasibleRowCapacity,
  /// Two fixed macro walls leave a mid-chip corridor far narrower than the
  /// movable cells crowded into it.
  kObstacleSaturatedRows,
};

const char* to_string(DegenerateMode mode);

/// Builds the requested pathological design. Positions are committed as the
/// GP input (gp == current), fully deterministic for a given (mode, seed).
db::Design generate_degenerate_design(DegenerateMode mode,
                                      std::size_t num_cells,
                                      std::uint64_t seed = 1);

/// Families of the production-scale point (bench/scaling_memory --point):
/// the same construction as generate_random_design, differing in what
/// stresses the model's memory spine hardest at 1M–10M cells.
enum class ScaleVariant {
  /// The paper's benchmark mix: 10% double-height, density 0.8, no macros.
  kBaseline,
  /// One fixed macro per ~2000 cells. Obstacles split row chains, so the
  /// component count explodes while each row's obstacle bookkeeping grows.
  kObstacleHeavy,
  /// Density 0.92: rows near capacity, long spacing chains, many active
  /// constraints — the largest constraint systems per cell.
  kHighUtilization,
};

const char* to_string(ScaleVariant variant);

/// Generates a design of ~num_cells cells from the given family. Thin
/// deterministic wrapper over generate_random_design — same (variant,
/// num_cells, seed) always yields the same design.
db::Design generate_scale_design(ScaleVariant variant, std::size_t num_cells,
                                 std::uint64_t seed = 1);

}  // namespace mch::gen
