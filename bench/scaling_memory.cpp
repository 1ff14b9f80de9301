// Production-scale memory/time point: legalizes one design of the
// gen::generate_scale_design families (1M–10M cells) on the streamed memory
// spine — streaming CSR assembly with the union-find folded in, then the
// tiered solve, which extracts one component sub-problem per lane at a
// time — and prints one row: cells, build/solve/allocate seconds,
// components, legality and peak RSS.
//
//   ./scaling_memory --point <baseline|obstacle-heavy|high-utilization> <cells>
//
// Peak RSS (getrusage ru_maxrss) is monotone over a process's lifetime, so
// one process measures one point. Under `ulimit -v` this is the bigmem
// smoke in tools/verify.sh. MCH_BENCH_SEED picks the generator seed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "db/legality.h"
#include "gen/generator.h"
#include "legal/mmsim_legalizer.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"
#include "legal/tetris_alloc.h"
#include "util/rss.h"
#include "util/timer.h"

namespace {

using namespace mch;

gen::ScaleVariant parse_variant(const std::string& name) {
  if (name == "baseline") return gen::ScaleVariant::kBaseline;
  if (name == "obstacle-heavy") return gen::ScaleVariant::kObstacleHeavy;
  if (name == "high-utilization") return gen::ScaleVariant::kHighUtilization;
  std::fprintf(stderr, "unknown scale variant '%s'\n", name.c_str());
  std::exit(2);
}

/// The measured point. Prints exactly one row to stdout.
int run_point(const std::string& variant_name, std::size_t cells) {
  const gen::ScaleVariant variant = parse_variant(variant_name);
  db::Design design =
      gen::generate_scale_design(variant, cells, bench::bench_seed());
  const legal::RowAssignment base_rows = legal::assign_rows(design);

  // Model build with the partition riding on the constraint stream.
  Timer build_timer;
  legal::ConstraintPartition partition;
  const legal::LegalizationModel model =
      legal::build_model(design, base_rows, {}, &partition);
  const double build_seconds = build_timer.seconds();

  legal::MmsimLegalizerOptions options;
  options.partition = legal::PartitionMode::kTiered;
  options.prebuilt_model = &model;
  options.prebuilt_partition = &partition;
  Timer solve_timer;
  const legal::MmsimLegalizerStats stats =
      legal::mmsim_legalize_continuous(design, base_rows, options);
  const double solve_seconds = solve_timer.seconds();

  Timer allocate_timer;
  const legal::TetrisStats allocation = legal::tetris_allocate(design);
  legal::assign_orientations(design);
  const double allocate_seconds = allocate_timer.seconds();

  const db::LegalityReport report = db::check_legality(design);
  const bool legal = report.legal() && allocation.unplaced_cells == 0;

  std::printf("%-16s %9zu %9.2f %9.2f %9.2f %9zu %5s %11.1f\n",
              variant_name.c_str(), design.num_cells(), build_seconds,
              solve_seconds, allocate_seconds, stats.num_components,
              legal ? "yes" : "NO", util::peak_rss_mb());
  return legal && stats.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4 || std::strcmp(argv[1], "--point") != 0) {
    std::fprintf(stderr, "usage: %s --point <variant> <cells>\n", argv[0]);
    return 2;
  }
  return run_point(argv[2], static_cast<std::size_t>(
                                std::strtoull(argv[3], nullptr, 10)));
}
