// Detailed-placement refinement after MMSIM legalization (extension): the
// downstream stage the paper's consumers (e.g. MrDP [12]) run on this
// legalizer's output. Reports HPWL recovered per move type over a slice of
// the suite — and shows the legalizer's output is a good DP starting point
// (small residual gains).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "db/legality.h"
#include "dp/detailed.h"
#include "eval/suite_runner.h"
#include "io/table.h"

int main() {
  using namespace mch;
  const gen::GeneratorOptions options = bench::bench_options();
  std::printf("Detailed placement refinement after MMSIM legalization "
              "(scale %.3f)\n\n",
              options.scale);

  io::Table table({"Benchmark", "HPWL legal", "HPWL refined", "gain",
                   "reorders", "swaps", "shifts", "passes", "t (s)",
                   "legal"});
  for (const char* name :
       {"fft_2", "fft_1", "des_perf_b", "pci_bridge32_a", "matrix_mult_a"}) {
    db::Design design =
        gen::generate_design(gen::find_spec(name), options);
    const eval::RunResult legalized =
        eval::run_legalizer(design, eval::Legalizer::kMmsim);
    const dp::DetailedPlacementStats stats = dp::refine(design);
    const bool legal = db::check_legality(design).legal();
    table.row()
        .cell(name)
        .cell(stats.hpwl_before, 0)
        .cell(stats.hpwl_after, 0)
        .percent(stats.improvement_fraction())
        .cell(stats.reorder_moves)
        .cell(stats.swap_moves)
        .cell(stats.shift_moves)
        .cell(stats.passes)
        .cell(stats.seconds, 2)
        .cell(legal ? "yes" : "NO");
    (void)legalized;
    std::cerr << "." << std::flush;
  }
  std::cerr << "\n";
  std::cout << table.to_text() << "\n";

  // Per-operation ablation on one benchmark.
  std::printf("Per-operation ablation (fft_1):\n");
  io::Table ablation({"Ops enabled", "HPWL gain", "moves"});
  struct Config {
    const char* label;
    bool reorder, swaps, shift;
  };
  for (const Config& config :
       {Config{"reorder only", true, false, false},
        Config{"swaps only", false, true, false},
        Config{"shift only", false, false, true},
        Config{"all", true, true, true}}) {
    db::Design design =
        gen::generate_design(gen::find_spec("fft_1"), options);
    eval::run_legalizer(design, eval::Legalizer::kMmsim);
    dp::DetailedPlacementOptions dp_options;
    dp_options.enable_reorder = config.reorder;
    dp_options.enable_vertical_swaps = config.swaps;
    dp_options.enable_shift = config.shift;
    const dp::DetailedPlacementStats stats = dp::refine(design, dp_options);
    ablation.row()
        .cell(config.label)
        .percent(stats.improvement_fraction(), 3)
        .cell(stats.reorder_moves + stats.swap_moves + stats.shift_moves);
  }
  std::cout << ablation.to_text();
  mch::bench::print_peak_rss();
  return 0;
}
