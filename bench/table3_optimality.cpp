// Reproduces the §5.3 optimality experiment: on the suite with *only*
// single-row-height cells (the paper's "benchmarks without doubling the
// cell heights"), the MMSIM solver and Abacus's PlaceRow subroutine —
// swapped into the identical flow — must produce the SAME total cell
// displacement, empirically validating Theorem 2. The paper also reports a
// 1.51× MMSIM speedup over PlaceRow at full scale.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "baselines/abacus.h"
#include "bench_common.h"
#include "db/legality.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "io/table.h"
#include "legal/flow.h"
#include "legal/tetris_alloc.h"
#include "runtime/parallel.h"
#include "util/timer.h"

namespace {

/// Per-benchmark measurements, filled concurrently (one slot per spec).
struct SpecResult {
  double disp_mmsim = 0.0;
  double disp_placerow = 0.0;
  bool equal = false;
  double t_mmsim = 0.0;
  double t_placerow = 0.0;
  double t_incr = 0.0;
  double do_not_optimize = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mch;
  const unsigned threads = bench::bench_threads(argc, argv);
  gen::GeneratorOptions options = bench::bench_options();
  std::printf("Section 5.3 — MMSIM optimality on single-row-height designs "
              "(scale %.3f, seed %llu, threads %u)\n\n",
              options.scale,
              static_cast<unsigned long long>(options.seed), threads);

  io::Table table({"Benchmark", "Disp MMSIM", "Disp PlaceRow", "Equal",
                   "t MMSIM (s)", "t PlaceRow (s)", "t PlaceRow-incr (s)"});
  const std::vector<gen::BenchmarkSpec>& suite = gen::ispd2015_mch_suite();
  std::vector<SpecResult> rows(suite.size());

  // One benchmark per runtime task; displacements are deterministic, the
  // timing columns are wall-clock and inflate a little under contention.
  runtime::parallel_for(std::size_t{0}, suite.size(), 1, [&](std::size_t lo,
                                                             std::size_t hi) {
   for (std::size_t s = lo; s < hi; ++s) {
    // Single-height variant: all cells single-row ("without doubling").
    gen::BenchmarkSpec single = suite[s];
    single.num_single_cells += single.num_double_cells;
    single.num_double_cells = 0;
    db::Design mmsim_design = gen::generate_design(single, options);
    db::Design placerow_design = mmsim_design;

    Timer timer;
    legal::FlowOptions flow_options;
    flow_options.solver.mmsim.tolerance = 1e-7;
    flow_options.solver.mmsim.max_iterations = 500000;
    flow_options.verify = false;
    legal::legalize(mmsim_design, flow_options);
    const double t_mmsim = timer.seconds();

    timer.reset();
    baselines::placerow_legalize_fixed_rows(placerow_design,
                                            /*clamp_right_boundary=*/false);
    legal::tetris_allocate(placerow_design);
    const double t_placerow = timer.seconds();

    // The literal Abacus usage of the subroutine: PlaceRow re-run on the
    // whole row after every cell insertion (what a per-cell legalizer pays,
    // and the fairer runtime comparison to the paper's 1.51x claim).
    timer.reset();
    double do_not_optimize = 0.0;
    {
      db::Design incr = placerow_design;  // geometry only; positions unused
      const legal::RowAssignment assignment =
          legal::compute_row_assignment(incr);
      std::vector<std::vector<baselines::PlaceRowCell>> per_row(
          incr.chip().num_rows);
      std::vector<std::size_t> order(incr.num_cells());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return incr.cells()[a].gp_x < incr.cells()[b].gp_x;
                });
      for (const std::size_t id : order) {
        auto& row = per_row[assignment[id]];
        row.push_back({incr.cells()[id].gp_x, incr.cells()[id].width, 1.0});
        do_not_optimize += baselines::place_row(row).back();
      }
    }
    const double t_incr = timer.seconds();

    const double disp_mmsim =
        eval::displacement(mmsim_design).total_sites;
    const double disp_placerow =
        eval::displacement(placerow_design).total_sites;
    rows[s] = {disp_mmsim,
               disp_placerow,
               std::abs(disp_mmsim - disp_placerow) <=
                   1e-3 * std::max(1.0, disp_placerow),
               t_mmsim,
               t_placerow,
               t_incr,
               do_not_optimize};
    std::cerr << "." << std::flush;
   }
  });
  std::cerr << "\n";

  bool all_equal = true;
  double mmsim_time = 0.0, placerow_time = 0.0, incr_time = 0.0;
  double benchmark_do_not_optimize = 0.0;
  for (std::size_t s = 0; s < suite.size(); ++s) {
    const SpecResult& r = rows[s];
    all_equal = all_equal && r.equal;
    mmsim_time += r.t_mmsim;
    placerow_time += r.t_placerow;
    incr_time += r.t_incr;
    benchmark_do_not_optimize += r.do_not_optimize;

    table.row()
        .cell(suite[s].name)
        .cell(r.disp_mmsim, 1)
        .cell(r.disp_placerow, 1)
        .cell(r.equal ? "yes" : "NO")
        .cell(r.t_mmsim, 3)
        .cell(r.t_placerow, 3)
        .cell(r.t_incr, 3);
  }

  std::cout << table.to_text() << "\n";
  std::cout << (all_equal
                    ? "Total displacements IDENTICAL on every benchmark — "
                      "Theorem 2 optimality empirically validated.\n"
                    : "MISMATCH detected — optimality claim violated!\n");
  std::printf("Aggregate runtime: MMSIM %.2fs | streaming PlaceRow %.2fs | "
              "per-insertion PlaceRow %.2fs.\n",
              mmsim_time, placerow_time, incr_time);
  std::printf("Note: one streaming PlaceRow pass per row is linear-time and "
              "beats both; the paper's 1.51x MMSIM speedup is against the "
              "Abacus-style per-insertion usage (last column), whose cost "
              "grows quadratically with row length.\n");
  (void)benchmark_do_not_optimize;
  mch::bench::print_peak_rss();
  return all_equal ? 0 : 1;
}
