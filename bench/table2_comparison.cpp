// Reproduces Table 2 of the paper: total displacement (sites), ΔHPWL, and
// runtime of four mixed-cell-height legalizers over the 20-benchmark suite,
// with normalized averages in the last row.
//
// Method mapping (reimplementations; see DESIGN.md §4):
//   DAC'16       → local          (Chow–Pui–Young-style local legalizer)
//   DAC'16-Imp   → local-imp      (+ ripple refinement)
//   ASP-DAC'17   → mixed-abacus   (Wang et al.-style extended Abacus)
//   Ours         → mmsim          (the paper's algorithm)
//
// Paper shape to verify: "Ours" smallest normalized displacement (1.16 /
// 1.10 / 1.06 / 1.00 in the paper) and smallest ΔHPWL (1.72 / 1.41 / 1.22 /
// 1.00), with runtime the same order of magnitude as the local methods.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "eval/suite_runner.h"
#include "io/table.h"

int main(int argc, char** argv) {
  using namespace mch;
  const unsigned threads = bench::bench_threads(argc, argv);
  const gen::GeneratorOptions options = bench::bench_options();
  std::printf("Table 2 — legalizer comparison (scale %.3f, seed %llu, "
              "threads %u)\n\n",
              options.scale,
              static_cast<unsigned long long>(options.seed), threads);

  const std::vector<eval::Legalizer> methods = {
      eval::Legalizer::kLocalBase, eval::Legalizer::kLocalImproved,
      eval::Legalizer::kMixedAbacus, eval::Legalizer::kMmsim};
  const std::vector<std::string> labels = {"DAC'16", "DAC'16-Imp",
                                           "ASP-DAC'17", "Ours"};

  std::vector<std::string> headers = {"Benchmark", "GP HPWL"};
  for (const std::string& label : labels) headers.push_back("Disp " + label);
  for (const std::string& label : labels) headers.push_back("dHPWL " + label);
  for (const std::string& label : labels) headers.push_back("Time(s) " + label);
  io::Table table(headers);

  // Normalized-average accumulators (normalize to "Ours" per benchmark,
  // exactly as the paper's last row does).
  std::vector<double> disp_ratio_sum(methods.size(), 0.0);
  std::vector<double> hpwl_ratio_sum(methods.size(), 0.0);
  std::vector<double> time_ratio_sum(methods.size(), 0.0);
  bool all_legal = true;

  // All (benchmark × method) runs fan out across the runtime's cores; the
  // results come back in row-major (spec, method) order.
  const std::vector<gen::BenchmarkSpec>& suite = gen::ispd2015_mch_suite();
  const std::vector<eval::RunResult> all_results =
      eval::SuiteRunner(options).run_cross(suite, methods, {}, &std::cerr);
  std::cerr << "\n";

  for (std::size_t s = 0; s < suite.size(); ++s) {
    const eval::RunResult* results = &all_results[s * methods.size()];
    for (std::size_t m = 0; m < methods.size(); ++m) {
      all_legal = all_legal && results[m].legal;
    }
    const eval::RunResult& ours = results[methods.size() - 1];

    table.row().cell(suite[s].name).cell(ours.gp_hpwl / 1e6, 3);
    for (std::size_t m = 0; m < methods.size(); ++m)
      table.cell(results[m].disp.total_sites, 0);
    for (std::size_t m = 0; m < methods.size(); ++m)
      table.percent(results[m].delta_hpwl);
    for (std::size_t m = 0; m < methods.size(); ++m)
      table.cell(results[m].seconds, 2);

    for (std::size_t m = 0; m < methods.size(); ++m) {
      disp_ratio_sum[m] +=
          results[m].disp.total_sites / ours.disp.total_sites;
      hpwl_ratio_sum[m] +=
          ours.delta_hpwl > 0.0 ? results[m].delta_hpwl / ours.delta_hpwl
                                : 1.0;
      time_ratio_sum[m] += results[m].seconds / ours.seconds;
    }
  }

  const double n = static_cast<double>(gen::ispd2015_mch_suite().size());
  table.row().cell("N. Average").cell("");
  for (std::size_t m = 0; m < methods.size(); ++m)
    table.cell(disp_ratio_sum[m] / n, 2);
  for (std::size_t m = 0; m < methods.size(); ++m)
    table.cell(hpwl_ratio_sum[m] / n, 2);
  for (std::size_t m = 0; m < methods.size(); ++m)
    table.cell(time_ratio_sum[m] / n, 2);

  std::cout << table.to_text() << "\n";

  // Constraint-graph decomposition of the "Ours" runs: how many independent
  // sub-problems the solver fanned out, and the iteration total across them
  // (under tiered partitioning this is what independent termination saves
  // versus running every component to the slowest one's count).
  // The incremental columns (dirty/reused/warm rate) report the resident
  // session's bookkeeping when the run was served through one (MCH_SESSION=1
  // routes eval::run_legalizer that way); a full solve re-solves every
  // component, so they only become non-zero for incremental ECO serving —
  // perfbench's eco_50k workload has the request-stream numbers.
  io::Table decomposition({"Benchmark", "Components", "Largest", "Mean size",
                           "Iters (max)", "Iters (sum)", "Dirty", "Reused",
                           "Warm rate"});
  for (std::size_t s = 0; s < suite.size(); ++s) {
    const eval::RunResult& ours =
        all_results[s * methods.size() + methods.size() - 1];
    if (ours.solver_components == 0) continue;  // monolithic run
    decomposition.row()
        .cell(suite[s].name)
        .cell(static_cast<double>(ours.solver_components), 0)
        .cell(static_cast<double>(ours.solver_max_component), 0)
        .cell(ours.solver_mean_component, 2)
        .cell(static_cast<double>(ours.solver_iterations), 0)
        .cell(static_cast<double>(ours.solver_component_iterations), 0)
        .cell(static_cast<double>(ours.session_dirty_components), 0)
        .cell(static_cast<double>(ours.session_reused_components), 0)
        .cell(ours.session_warm_rate, 2);
  }
  std::cout << "Solver decomposition (Ours):\n"
            << decomposition.to_text() << "\n";

  std::cout << (all_legal ? "All placements verified legal.\n"
                          : "WARNING: some placements were ILLEGAL — "
                            "metrics above are not comparable!\n");
  std::cout << "Paper reference (full scale): N.Average disp 1.16 / 1.10 / "
               "1.06 / 1.00; dHPWL 1.72 / 1.41 / 1.22 / 1.00; time 1.02 / "
               "0.97 / 1.96 / 1.00.\n";
  mch::bench::print_peak_rss();
  return all_legal ? 0 : 1;
}
