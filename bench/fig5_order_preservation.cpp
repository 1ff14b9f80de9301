// Reproduces Figure 5 of the paper: the legalized layout of fft_2 with
// displacement vectors (5a) and a zoomed partial layout (5b), written as
// SVG files, plus a quantitative order-preservation audit — the property
// Fig. 5(b) illustrates ("the cell order is well preserved by our
// algorithm, a key to our superior results").
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "io/svg.h"
#include "legal/flow.h"
#include "legal/row_assign.h"

int main() {
  using namespace mch;
  const gen::GeneratorOptions options = bench::bench_options();
  std::printf("Figure 5 — fft_2 legalization layout & order preservation "
              "(scale %.3f, seed %llu)\n\n",
              options.scale,
              static_cast<unsigned long long>(options.seed));

  db::Design design =
      gen::generate_design(gen::find_spec("fft_2"), options);
  const legal::FlowResult flow = legal::legalize(design);
  if (!flow.legal) {
    std::cout << "legalization FAILED: " << flow.legality.summary() << "\n";
    return 1;
  }

  // Fig. 5(a): full layout, cells blue, displacement red.
  io::SvgOptions full;
  full.pixels_per_unit = 1000.0 / design.chip().width();
  io::save_svg("fig5a_fft_2_full.svg", design, full);

  // Fig. 5(b): zoomed window on the chip center.
  io::SvgOptions zoom;
  zoom.window_w = design.chip().width() / 8.0;
  zoom.window_h = design.chip().height() / 8.0;
  zoom.window_x = (design.chip().width() - zoom.window_w) / 2.0;
  zoom.window_y = (design.chip().height() - zoom.window_h) / 2.0;
  zoom.pixels_per_unit = 1000.0 / zoom.window_w;
  io::save_svg("fig5b_fft_2_zoom.svg", design, zoom);

  // Order preservation: among pairs of cells that share a row in the final
  // placement and had distinct GP x, count inversions.
  std::vector<std::vector<std::size_t>> row_cells(design.chip().num_rows);
  for (std::size_t i = 0; i < design.num_cells(); ++i) {
    const db::Cell& cell = design.cells()[i];
    const auto base = static_cast<std::size_t>(
        cell.y / design.chip().row_height + 0.5);
    for (std::size_t r = base; r < base + cell.height_rows; ++r)
      row_cells[r].push_back(i);
  }
  std::size_t pairs = 0, inversions = 0;
  for (const auto& ids : row_cells)
    for (std::size_t a = 0; a < ids.size(); ++a)
      for (std::size_t b = a + 1; b < ids.size(); ++b) {
        const db::Cell& ca = design.cells()[ids[a]];
        const db::Cell& cb = design.cells()[ids[b]];
        if (ca.gp_x == cb.gp_x) continue;
        ++pairs;
        const bool gp_order = ca.gp_x < cb.gp_x;
        const bool final_order =
            ca.x != cb.x ? ca.x < cb.x : ids[a] < ids[b];
        if (gp_order != final_order) ++inversions;
      }

  const eval::DisplacementStats disp = eval::displacement(design);
  std::printf("cells:                  %zu\n", design.num_cells());
  std::printf("legal:                  yes\n");
  std::printf("total displacement:     %.1f sites (mean %.2f, max %.2f)\n",
              disp.total_sites, disp.mean_sites, disp.max_sites);
  std::printf("same-row cell pairs:    %zu\n", pairs);
  std::printf("order inversions:       %zu (%.4f%%)\n", inversions,
              pairs ? 100.0 * static_cast<double>(inversions) /
                          static_cast<double>(pairs)
                    : 0.0);
  std::printf("wrote fig5a_fft_2_full.svg and fig5b_fft_2_zoom.svg\n");
  std::cout << "\nPaper shape: the MMSIM honors the GP ordering within "
               "rows, so inversions can come only from the Tetris-like "
               "relocation of the few illegal cells — expect ~0%.\n";
  mch::bench::print_peak_rss();
  return 0;
}
