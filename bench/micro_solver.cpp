// Google-benchmark microbenchmarks of the pipeline stages, measuring the
// scaling behind the paper's linear-time efficiency claim: model build,
// MMSIM setup + iterations, PlaceRow collapse, and the Tetris-like
// allocation (fits in EXPERIMENTS.md E10). --threads N / MCH_THREADS set the
// thread count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "baselines/abacus.h"
#include "bench_common.h"
#include "gen/generator.h"
#include "lcp/mmsim.h"
#include "linalg/csr.h"
#include "linalg/simd.h"
#include "legal/flow.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "legal/tetris_alloc.h"
#include "runtime/options.h"

namespace {

using namespace mch;

const db::Design& cached_design(std::size_t cells) {
  static std::map<std::size_t, db::Design> cache;
  auto it = cache.find(cells);
  if (it == cache.end()) {
    gen::GeneratorOptions options;
    options.seed = 7;
    options.nets_per_cell = 0.0;
    it = cache
             .emplace(cells, gen::generate_random_design(
                                 cells - cells / 10, cells / 10, 0.6,
                                 options))
             .first;
  }
  return it->second;
}

void BM_ModelBuild(benchmark::State& state) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(legal::build_model(design, rows));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ModelBuild)->Range(1000, 64000)->Complexity(benchmark::oN);

void BM_MmsimIterations(benchmark::State& state) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  lcp::MmsimOptions options;
  options.max_iterations = 100;  // fixed budget: measures per-iteration cost
  options.tolerance = 0.0;
  options.residual_check = false;
  const lcp::MmsimSolver solver(model.qp, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MmsimIterations)->Range(1000, 64000)->Complexity(benchmark::oN);

/// The dispatch level the process started with (MCH_SIMD clamped to the
/// CPU), captured before any benchmark flips it.
linalg::SimdLevel default_simd_level() {
  static const linalg::SimdLevel level = linalg::simd_level();
  return level;
}

/// Installs the SIMD dispatch level a benchmark's arg asks for (0 = scalar
/// reference, 1 = the process default, i.e. MCH_SIMD/auto) and returns a
/// label suffix. The level is process-global, so each A/B run sets it
/// explicitly.
std::string apply_simd_arg(std::int64_t arg) {
  const linalg::SimdLevel level = linalg::set_simd_level(
      arg != 0 ? default_simd_level() : linalg::SimdLevel::kScalar);
  return std::string("/simd:") + linalg::simd_level_name(level);
}

// CSR sparse engine: one fused two-vector traversal (multiply_add2) against
// the two sequential single-vector products it replaces — the access
// pattern of the MMSIM rhs accumulation. arg 1: 0 = sequential pair,
// 1 = fused; arg 2: 0 = scalar kernels, 1 = highest supported SIMD level.
// The transpose variant runs through the cached Bᵀ view.
void csr_spmv(benchmark::State& state, bool transpose) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  const linalg::CsrMatrix& b = model.qp.B;
  const std::size_t xs = transpose ? b.rows() : b.cols();
  const std::size_t ys = transpose ? b.cols() : b.rows();
  const lcp::Vector x1(xs, 1.0), x2(xs, 0.5);
  lcp::Vector y(ys, 0.0);
  const bool fused = state.range(1) != 0;
  const std::string simd = apply_simd_arg(state.range(2));
  for (auto _ : state) {
    if (transpose) {
      if (fused) {
        b.multiply_transpose_add2(0.5, x1, -1.0, x2, y);
      } else {
        b.multiply_transpose_add(0.5, x1, y);
        b.multiply_transpose_add(-1.0, x2, y);
      }
    } else {
      if (fused) {
        b.multiply_add2(0.5, x1, -1.0, x2, y);
      } else {
        b.multiply_add(0.5, x1, y);
        b.multiply_add(-1.0, x2, y);
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetComplexityN(state.range(0));
  state.SetLabel((fused ? "fused" : "pair") + simd);
}

void BM_CsrSpmv(benchmark::State& state) { csr_spmv(state, false); }
BENCHMARK(BM_CsrSpmv)->ArgsProduct({{8000, 64000}, {0, 1}, {0, 1}});

void BM_CsrSpmvTranspose(benchmark::State& state) { csr_spmv(state, true); }
BENCHMARK(BM_CsrSpmvTranspose)->ArgsProduct({{8000, 64000}, {0, 1}, {0, 1}});

void BM_MmsimSolveToConvergence(benchmark::State& state) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  const lcp::MmsimSolver solver(model.qp, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MmsimSolveToConvergence)->Range(1000, 16000);

// Obstacle-rich design for the decomposition benchmarks: fixed macros break
// the row chains, so the constraint graph falls into many independent
// components and the partitioned solve paths have real fan-out to exploit.
const db::Design& cached_obstacle_design(std::size_t cells) {
  static std::map<std::size_t, db::Design> cache;
  auto it = cache.find(cells);
  if (it == cache.end()) {
    gen::GeneratorOptions options;
    options.seed = 7;
    options.nets_per_cell = 0.0;
    options.fixed_macros = std::max<std::size_t>(4, cells / 250);
    it = cache
             .emplace(cells, gen::generate_random_design(
                                 cells - cells / 10, cells / 10, 0.6,
                                 options))
             .first;
  }
  return it->second;
}

void solve_partitioned(benchmark::State& state, legal::PartitionMode mode) {
  db::Design design =
      cached_obstacle_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  legal::MmsimLegalizerOptions options;
  options.partition = mode;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        legal::mmsim_legalize_continuous(design, rows, options));
  }
  state.SetComplexityN(state.range(0));
}

void BM_SolveMonolithic(benchmark::State& state) {
  solve_partitioned(state, legal::PartitionMode::kOff);
}
BENCHMARK(BM_SolveMonolithic)->Range(1000, 16000);

void BM_SolvePartitionMatch(benchmark::State& state) {
  solve_partitioned(state, legal::PartitionMode::kMatch);
}
BENCHMARK(BM_SolvePartitionMatch)->Range(1000, 16000);

void BM_SolvePartitionTiered(benchmark::State& state) {
  solve_partitioned(state, legal::PartitionMode::kTiered);
}
BENCHMARK(BM_SolvePartitionTiered)->Range(1000, 16000);

void BM_PlaceRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<baselines::PlaceRowCell> cells;
  cells.reserve(n);
  double target = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    target += 3.0 + static_cast<double>(i % 5);
    cells.push_back({target * 0.8, 4.0});  // 20% compression: collapses
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::place_row(cells));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PlaceRow)->Range(256, 65536)->Complexity(benchmark::oN);

void BM_TetrisAllocate(benchmark::State& state) {
  const db::Design& base = cached_design(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    db::Design design = base;
    legal::assign_rows(design);
    state.ResumeTiming();
    benchmark::DoNotOptimize(legal::tetris_allocate(design));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TetrisAllocate)->Range(1000, 32000);

void BM_FullFlow(benchmark::State& state) {
  const db::Design& base = cached_design(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    db::Design design = base;
    state.ResumeTiming();
    legal::FlowOptions options;
    options.verify = false;
    benchmark::DoNotOptimize(legal::legalize(design, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullFlow)->Range(1000, 16000);

}  // namespace

int main(int argc, char** argv) {
  mch::runtime::configure_threads_from_cli(argc, argv);
  mch::bench::print_bench_banner("micro_solver");
  default_simd_level();  // pin the MCH_SIMD-resolved default for the A/Bs
  // Strip our flags so google-benchmark does not reject them.
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 ||
        std::strcmp(argv[i], "-j") == 0) {
      ++i;  // skip the value
    } else if (std::strncmp(argv[i], "--threads=", 10) != 0) {
      filtered.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mch::bench::print_peak_rss();
  return 0;
}
