// Reproduces Table 1 of the paper: benchmark statistics and the number of
// illegal cells remaining after the MMSIM legalization (before the
// Tetris-like allocation fixes them).
//
// Paper shape to verify: illegal ratios below ~0.1% except on the densest
// designs (des_perf_1 at 0.91, fft_1 at 0.84), suite average ≈ 0.03%.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/suite_runner.h"
#include "io/table.h"

int main(int argc, char** argv) {
  using namespace mch;
  const unsigned threads = bench::bench_threads(argc, argv);
  const gen::GeneratorOptions options = bench::bench_options();
  std::printf("Table 1 — illegal cells after MMSIM legalization "
              "(scale %.3f, seed %llu, threads %u)\n\n",
              options.scale,
              static_cast<unsigned long long>(options.seed), threads);

  io::Table table({"Benchmark", "#S. Cell", "#D. Cell", "Density", "#I. Cell",
                   "%I. Cell", "legal"});
  double illegal_ratio_sum = 0.0;
  std::size_t total_single = 0, total_double = 0, total_illegal = 0;
  double density_sum = 0.0;

  // One design per runtime task: the suite fans out across all cores.
  const std::vector<gen::BenchmarkSpec>& suite = gen::ispd2015_mch_suite();
  const std::vector<eval::RunResult> results =
      eval::SuiteRunner(options).run_cross(suite, {eval::Legalizer::kMmsim},
                                           {}, &std::cerr);
  std::cerr << "\n";

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const eval::RunResult& result = results[i];
    const double ratio =
        static_cast<double>(result.illegal_after_solver) /
        static_cast<double>(result.num_cells);
    table.row()
        .cell(suite[i].name)
        .cell(result.num_single)
        .cell(result.num_double)
        .cell(result.density, 2)
        .cell(result.illegal_after_solver)
        .percent(ratio)
        .cell(result.legal ? "yes" : "NO");
    illegal_ratio_sum += ratio;
    total_single += result.num_single;
    total_double += result.num_double;
    total_illegal += result.illegal_after_solver;
    density_sum += result.density;
  }

  const double n = static_cast<double>(gen::ispd2015_mch_suite().size());
  table.row()
      .cell("Average")
      .cell(static_cast<std::size_t>(static_cast<double>(total_single) / n))
      .cell(static_cast<std::size_t>(static_cast<double>(total_double) / n))
      .cell(density_sum / n, 2)
      .cell(static_cast<std::size_t>(static_cast<double>(total_illegal) / n))
      .percent(illegal_ratio_sum / n)
      .cell("");

  std::cout << table.to_text() << "\n";
  std::cout << "Paper reference (full scale): average illegal ratio 0.03%; "
               "max 0.80% (des_perf_1), 0.57% (fft_1); zero on "
               "pci_bridge32_a/b.\n";
  mch::bench::print_peak_rss();
  return 0;
}
