// Shared configuration for the experiment harness binaries.
//
// Every table/figure bench regenerates its paper artifact on the synthetic
// suite. The suite scale is configurable so the whole harness runs in
// minutes by default yet can be pushed to the paper's full benchmark sizes:
//
//   MCH_BENCH_SCALE   fraction of each benchmark's published cell count
//                     (default 0.05; 1.0 = full scale, superblue12 ≈ 1.29M
//                     cells)
//   MCH_BENCH_SEED    generator seed (default 1)
//
// Thread count is shared with the rest of the harness: every bench accepts
// --threads N (and the MCH_THREADS environment variable) via
// bench_threads(), which forwards to runtime/options.h so examples, tools
// and benches all parse the knob identically.
//
// Experiment shapes (who wins, by what factor, where the crossovers are)
// are scale-invariant; see EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "gen/generator.h"
#include "runtime/options.h"
#include "util/rss.h"

namespace mch::bench {

/// The CMake build type the bench binary was compiled under (stamped by
/// bench/CMakeLists.txt). results/*.txt snapshots must say "Release" — the
/// bench build refuses to configure as Debug for exactly this reason.
inline const char* bench_build_type() {
#ifdef MCH_BUILD_TYPE
  return MCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Prints the provenance header every bench emits at the top of its output
/// (and thus into its results/*.txt snapshot): build type, scale, seed.
inline void print_bench_banner(const char* name) {
  std::printf("# %s — build: %s, MCH_BENCH_SCALE=%s, MCH_BENCH_SEED=%s\n",
              name, bench_build_type(),
              std::getenv("MCH_BENCH_SCALE") ? std::getenv("MCH_BENCH_SCALE")
                                             : "(default)",
              std::getenv("MCH_BENCH_SEED") ? std::getenv("MCH_BENCH_SEED")
                                            : "(default)");
}

/// Configures the global Runtime from --threads/MCH_THREADS and returns the
/// resolved thread count. Call first thing in main(). Also stamps the
/// build-type provenance line into the output (every results/*.txt snapshot
/// starts with it).
inline unsigned bench_threads(int argc, char* const* argv) {
  const unsigned threads = runtime::configure_threads_from_cli(argc, argv);
  std::printf("# build: %s, threads: %u\n", bench_build_type(), threads);
  return threads;
}

/// Prints the process peak-RSS line every bench emits last (and thus into
/// the tail of its results/*.txt snapshot). getrusage's high-water mark is
/// process-monotone, so this covers the biggest design the bench touched.
inline void print_peak_rss() {
  std::printf("# peak RSS: %.1f MB\n", util::peak_rss_mb());
}

inline double bench_scale() {
  if (const char* env = std::getenv("MCH_BENCH_SCALE")) {
    const double value = std::atof(env);
    if (value > 0.0 && value <= 1.0) return value;
  }
  return 0.05;
}

inline std::uint64_t bench_seed() {
  if (const char* env = std::getenv("MCH_BENCH_SEED")) {
    const long long value = std::atoll(env);
    if (value > 0) return static_cast<std::uint64_t>(value);
  }
  return 1;
}

inline gen::GeneratorOptions bench_options() {
  gen::GeneratorOptions options;
  options.scale = bench_scale();
  options.seed = bench_seed();
  return options;
}

}  // namespace mch::bench
