// perfbench — the measuring half of the repo benchmark (perfbench/run.py is
// the other half: it builds this program, applies the thread guard, turns
// the raw samples printed here into metrics, and stamps provenance).
//
//   perfbench --workload <cold_fft1|eco_50k|multi_small> --seed N
//             --seconds S --trace 0|1 --threads T --clients C --out-dir DIR
//
// Every workload is generated in-process from --seed and uses the library's
// defaults (no forced partition mode, no MCH_* knobs). The program measures
// each layer from outside: it times its own calls into the layers' public
// functions and reads the stats structs those calls return. With --trace 1
// every call is additionally wrapped in an obs::TraceSpan named
// "bench.<layer>", and the Chrome trace + metrics snapshot are written under
// --out-dir; per-layer numbers still come from the timers and stats structs,
// never from the span ring (the ring evicts under load).
//
// Output: one JSON object on stdout holding the raw timing series, scalar
// values, per-layer values and the correctness tally. Progress goes to
// stderr. Exit code 0 iff every result was legal and every check passed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/legality.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "gen/spec.h"
#include "legal/flow.h"
#include "legal/model.h"
#include "legal/mmsim_legalizer.h"
#include "legal/partition.h"
#include "legal/row_assign.h"
#include "legal/tetris_alloc.h"
#include "linalg/simd.h"
#include "obs/obs.h"
#include "runtime/runtime.h"
#include "service/session.h"
#include "util/rng.h"
#include "util/rss.h"
#include "util/timer.h"

namespace {

using namespace mch;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 4;
  unsigned clients = 1;
  std::string out_dir = ".";
};

/// Everything one run reports. run.py owns the statistics: series are raw
/// samples, values are single numbers, layers are the per-layer metrics.
struct Report {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;
  std::map<std::string, double> layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string message) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAIL %s\n", message.c_str());
    errors.push_back(std::move(message));
  }
};

void json_number(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  out += buf;
}

void json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  out += '"';
}

std::string to_json(const Args& args, const Report& report) {
  std::string out = "{\"workload\": ";
  json_string(out, args.workload);
  out += ", \"simd\": ";
  json_string(out, linalg::simd_level_name(linalg::simd_level()));
  out += ", \"build_type\": ";
  json_string(out, MCH_BUILD_TYPE);
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ", ";
    json_string(out, report.errors[i]);
  }
  out += "], \"series\": {";
  bool first = true;
  for (const auto& [name, samples] : report.series) {
    if (!first) out += ", ";
    first = false;
    json_string(out, name);
    out += ": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ", ";
      json_number(out, samples[i]);
    }
    out += "]";
  }
  for (const auto* block : {&report.values, &report.layers}) {
    out += block == &report.values ? "}, \"values\": {" : "}, \"layers\": {";
    first = true;
    for (const auto& [name, value] : *block) {
      if (!first) out += ", ";
      first = false;
      json_string(out, name);
      out += ": ";
      json_number(out, value);
    }
  }
  out += "}}";
  return out;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The sched.* counters always count (metrics export is what is gated), so
/// their deltas across a pass are the scheduler's work in that pass.
struct SchedCounters {
  std::uint64_t jobs = 0, steals = 0, nested_inline = 0;

  static SchedCounters now() {
    return {obs::counter("sched.jobs").value(),
            obs::counter("sched.steals").value(),
            obs::counter("sched.nested_inline").value()};
  }
  SchedCounters operator-(const SchedCounters& o) const {
    return {jobs - o.jobs, steals - o.steals, nested_inline - o.nested_inline};
  }
};

void record_sched(Report& report, const SchedCounters& delta,
                  std::size_t requests) {
  report.layers["runtime.scheduler.jobs_per_design"] =
      requests == 0 ? 0.0
                    : static_cast<double>(delta.jobs) /
                          static_cast<double>(requests);
  report.layers["runtime.scheduler.steals"] = static_cast<double>(delta.steals);
  report.layers["runtime.scheduler.nested_inline"] =
      static_cast<double>(delta.nested_inline);
}

/// Solves that needed the recovery ladder: whole-solve escalations plus
/// components that ended on a rung past the primary (rescued or clamped).
/// RecoveryStats::ladder_attempts is not used: it also counts every
/// component's primary attempt.
std::size_t recovery_attempts(const legal::MmsimLegalizerStats& stats) {
  return stats.recovery.escalations + stats.recovery.recovered_components +
         stats.recovery.clamped_components;
}

/// Counts one checked outcome; a false `ok` is a failure.
void expect(Report& report, bool ok, const std::string& what) {
  ++report.attempted;
  if (!ok) report.fail(what);
}

/// The legality oracle every result passes: a db::check_legality report the
/// benchmark obtained itself, plus zero unplaced cells.
void audit(Report& report, const db::LegalityReport& legality,
           std::size_t unplaced, const std::string& what) {
  expect(report, legality.legal() && unplaced == 0,
         what + ": " + legality.summary() + ", unplaced " +
             std::to_string(unplaced));
}

void audit(Report& report, const db::Design& design, std::size_t unplaced,
           const std::string& what) {
  audit(report, db::check_legality(design), unplaced, what);
}

/// Runs `setup` `repeats` times, recording each wall time into setup_s, and
/// returns the last product.
template <typename F>
auto timed_setup(Report& report, int repeats, F&& setup) {
  for (int i = 1;; ++i) {
    Timer timer;
    auto product = setup();
    report.series["setup_s"].push_back(timer.seconds());
    if (i >= repeats) return product;
  }
}

// ---------------------------------------------------------------------------
// cold_fft1: one-shot legalize of the full-scale Table-1 fft_1 design, driven
// step by step through the flow's public functions.

struct ColdSample {
  double rows = 0, model = 0, partition = 0, mmsim = 0, tetris = 0,
         orient = 0, verify = 0, total = 0;
  legal::MmsimLegalizerStats solver;
  legal::TetrisStats allocation;
  db::LegalityReport legality;
};

ColdSample legalize_step_by_step(db::Design& design) {
  ColdSample s;
  Timer total;
  legal::RowAssignment rows;
  {
    obs::TraceSpan span("bench.legal.row_assign");
    Timer t;
    rows = legal::assign_rows(design);
    s.rows = t.seconds();
  }
  legal::LegalizationModel model;
  legal::FlowOptions flow;  // library defaults
  {
    obs::TraceSpan span("bench.legal.model");
    Timer t;
    model = legal::build_model(design, rows, flow.solver.model);
    s.model = t.seconds();
  }
  legal::ConstraintPartition partition;
  {
    obs::TraceSpan span("bench.legal.partition");
    Timer t;
    partition = legal::partition_model(model);
    s.partition = t.seconds();
  }
  {
    obs::TraceSpan span("bench.legal.mmsim_legalizer");
    legal::MmsimLegalizerOptions options = flow.solver;
    options.prebuilt_model = &model;
    options.prebuilt_partition = &partition;
    Timer t;
    s.solver = legal::mmsim_legalize_continuous(design, rows, options);
    s.mmsim = t.seconds();
  }
  {
    obs::TraceSpan span("bench.legal.tetris_alloc");
    Timer t;
    s.allocation = legal::tetris_allocate(design);
    s.tetris = t.seconds();
  }
  {
    obs::TraceSpan span("bench.legal.row_assign.orient");
    Timer t;
    legal::assign_orientations(design);
    s.orient = t.seconds();
  }
  {
    obs::TraceSpan span("bench.db.legality");
    Timer t;
    s.legality = db::check_legality(design);
    s.verify = t.seconds();
  }
  s.total = total.seconds();
  return s;
}

/// fft_1 instances per run. One instance's MMSIM iteration count depends on
/// its generator seed (a lockstep solve runs to its slowest component), so a
/// run legalizes several seed-derived instances and reports medians over
/// them instead of betting on one.
constexpr std::size_t kColdInstances = 12;

void run_cold(const Args& args, Report& report) {
  const std::vector<db::Design> instances = timed_setup(report, 3, [&] {
    std::vector<db::Design> designs;
    for (std::size_t k = 0; k < kColdInstances; ++k) {
      gen::GeneratorOptions options;
      options.seed = args.seed * 1000003ull + k;
      designs.push_back(
          gen::generate_design(gen::find_spec("fft_1"), options));
    }
    return designs;
  });
  std::fprintf(stderr, "cold_fft1: %zu instances of %zu cells\n",
               instances.size(), instances.front().num_cells());

  // Instances are legalized round-robin until the time is up and each has
  // run at least once. Traced runs trace every other legalize.
  std::vector<ColdSample> samples;
  std::vector<std::vector<double>> per_instance(instances.size());
  std::vector<double> disp(instances.size()), dhpwl(instances.size());
  std::vector<double> untraced_per_it, traced_per_it;
  const SchedCounters sched_before = SchedCounters::now();
  Timer pass;
  for (std::size_t i = 0;
       i < instances.size() || pass.seconds() < args.seconds; ++i) {
    const std::size_t k = i % instances.size();
    const bool traced = args.trace && i % 2 == 1;
    db::Design design = instances[k];
    obs::set_tracing_enabled(traced);
    ColdSample s = legalize_step_by_step(design);
    obs::set_tracing_enabled(false);
    audit(report, s.legality, s.allocation.unplaced_cells, "cold legalize");
    if (i == k) {
      disp[k] = eval::displacement(design).mean_sites;
      dhpwl[k] = 100.0 * eval::delta_hpwl_fraction(design);
    }
    per_instance[k].push_back(s.total);
    // Iterations differ per instance; time per iteration compares traced
    // and untraced legalizes of different instances fairly.
    (traced ? traced_per_it : untraced_per_it)
        .push_back(s.total / static_cast<double>(
                                 std::max<std::size_t>(1, s.solver.iterations)));
    std::fprintf(stderr,
                 "  instance %zu: legalize %.3fs, %zu iterations, dhpwl %.4f%%\n",
                 k, s.total, s.solver.iterations, dhpwl[k]);
    samples.push_back(std::move(s));
  }
  for (const std::vector<double>& times : per_instance) {
    report.series["legalize_s"].push_back(median_of(times));
    report.series["request_ms"].push_back(1e3 * median_of(times));
  }
  // One client legalizing one design at a time. A dozen samples are too few
  // for a mean that ignores host stalls, so the rate follows the median.
  report.values["designs_per_s"] =
      1.0 / median_of(report.series["legalize_s"]);
  report.values["disp_mean_sites"] = median_of(disp);
  report.values["dhpwl_pct"] = median_of(dhpwl);

  // The step-by-step calls must reproduce the one-shot flow on a copy of the
  // input: same legality, same mean displacement.
  {
    db::Design copy = instances.front();
    const legal::FlowResult one_shot = legal::legalize(copy);
    audit(report, one_shot.legality, one_shot.allocation.unplaced_cells,
          "one-shot");
    const bool step_legal = samples.front().legality.legal() &&
                            samples.front().allocation.unplaced_cells == 0;
    const double one_shot_disp = eval::displacement(copy).mean_sites;
    expect(report,
           one_shot.legal == step_legal &&
               std::fabs(one_shot_disp - disp[0]) <=
                   1e-9 * std::max(1.0, disp[0]),
           "step-by-step legalize differs from legal::legalize: disp " +
               std::to_string(disp[0]) + " vs " +
               std::to_string(one_shot_disp));
  }

  if (!args.trace) return;
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const ColdSample& s : samples) v.push_back(field(s));
    return median_of(v);
  };
  using S = ColdSample;
  auto& L = report.layers;
  L["legal.row_assign.s"] = med([](const S& s) { return s.rows; });
  L["legal.row_assign.orient_s"] = med([](const S& s) { return s.orient; });
  L["legal.model.s"] = med([](const S& s) { return s.model; });
  L["legal.partition.s"] = med([](const S& s) { return s.partition; });
  L["legal.mmsim_legalizer.s"] = med([](const S& s) { return s.mmsim; });
  L["legal.tetris_alloc.s"] = med([](const S& s) { return s.tetris; });
  L["db.legality.s"] = med([](const S& s) { return s.verify; });
  L["legal.mmsim_legalizer.components"] = med(
      [](const S& s) { return static_cast<double>(s.solver.num_components); });
  L["legal.mmsim_legalizer.max_component_size"] = med([](const S& s) {
    return static_cast<double>(s.solver.max_component_size);
  });
  L["lcp.iterations"] = med(
      [](const S& s) { return static_cast<double>(s.solver.iterations); });
  L["lcp.component_iterations"] = med([](const S& s) {
    return static_cast<double>(s.solver.component_iterations);
  });
  L["lcp.iterations_per_design"] = L["lcp.component_iterations"];
  L["lcp.kernel_s"] = med([](const S& s) { return s.solver.phase.kernel_seconds; });
  L["lcp.spmv_s"] = med([](const S& s) { return s.solver.phase.spmv_seconds; });
  L["lcp.thomas_s"] = med([](const S& s) { return s.solver.phase.thomas_seconds; });
  L["lcp.reduction_s"] =
      med([](const S& s) { return s.solver.phase.reduction_seconds; });
  double attempts = 0.0, unplaced = 0.0;
  for (const S& s : samples) {
    attempts += static_cast<double>(recovery_attempts(s.solver));
    unplaced += static_cast<double>(s.allocation.unplaced_cells);
  }
  L["lcp.recovery_attempts"] = attempts;
  L["legal.tetris_alloc.unplaced"] = unplaced;
  record_sched(report, SchedCounters::now() - sched_before, samples.size());
  report.values["traced_over_untraced"] =
      median_of(traced_per_it) / median_of(untraced_per_it);

  // The layers are called back to back, so their times must account for
  // the whole legalize (the rest is the timer's own overhead).
  double worst = 1.0;
  for (const S& s : samples)
    worst = std::min(worst, (s.rows + s.model + s.partition + s.mmsim +
                             s.tetris + s.orient + s.verify) /
                                s.total);
  expect(report, worst >= 0.95,
         "per-layer times cover only " + std::to_string(worst) +
             " of legalize_s");
}

// ---------------------------------------------------------------------------
// eco_50k: resident LegalizationSessions serving a fixed-length stream of
// 8-op ECO batches from one closed-loop client. Three sessions on
// seed-derived 50k-cell designs take the requests round-robin, so the tail
// latency does not hinge on a single design.

constexpr std::size_t kEcoSessions = 3;
constexpr std::size_t kEcoOpsPerRequest = 8;
constexpr std::size_t kEcoWarmupPerSession = 50;
constexpr double kEcoRequestsPerSecond = 16.0;  // stream length per --seconds

service::EcoRequest make_eco_request(const service::LegalizationSession& s,
                                     Rng& rng) {
  const db::Design& design = s.design();
  const db::Chip& chip = design.chip();
  const auto pick_live_movable = [&]() -> std::size_t {
    for (;;) {
      const auto id = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(design.num_cells()) - 1));
      const db::Cell& cell = design.cells()[id];
      if (!cell.fixed && !cell.erased) return id;
    }
  };
  service::EcoRequest request;
  for (std::size_t k = 0; k < kEcoOpsPerRequest; ++k) {
    const double roll = rng.uniform();
    if (roll < 0.90) {
      const std::size_t id = pick_live_movable();
      const db::Cell& cell = design.cells()[id];
      request.ops.push_back(service::EcoOp::move(
          id, cell.gp_x + rng.normal(0.0, 6.0 * chip.site_width),
          cell.gp_y + rng.normal(0.0, 0.8 * chip.row_height)));
    } else if (roll < 0.95) {
      db::Cell payload = design.cells()[pick_live_movable()];
      payload.gp_x = rng.uniform(0.0, chip.width() - payload.width);
      payload.gp_y = rng.uniform(0.0, chip.height());
      request.ops.push_back(service::EcoOp::insert(payload));
    } else {
      request.ops.push_back(service::EcoOp::erase(pick_live_movable()));
    }
  }
  return request;
}

void run_eco(const Args& args, Report& report) {
  // Resident set-up per session: generate, legalize, adopt the legal
  // placement as the GP (the ECO baseline), and solve once more on the
  // committed state. The session's own verify is db::check_legality; each
  // session is also audited independently below.
  std::vector<std::unique_ptr<service::LegalizationSession>> sessions;
  std::vector<double> disp, dhpwl;
  for (std::size_t k = 0; k < kEcoSessions; ++k) {
    Timer setup;
    gen::GeneratorOptions options;
    options.seed = args.seed * 1000003ull + k;
    auto s = std::make_unique<service::LegalizationSession>(
        gen::generate_random_design(45000, 5000, 0.7, options));
    Timer t;
    service::SessionResult full = s->full_legalize();
    report.series["legalize_s"].push_back(t.seconds());
    expect(report, full.legal && full.allocation.unplaced_cells == 0,
           "set-up legalize: " + full.legality_summary);
    Timer quality;  // Table-2 quality of the legalize from generated GP
    disp.push_back(eval::displacement(s->design()).mean_sites);
    dhpwl.push_back(100.0 * eval::delta_hpwl_fraction(s->design()));
    const double quality_s = quality.seconds();
    s->commit_legal_as_gp();
    full = s->full_legalize();
    expect(report, full.legal && full.allocation.unplaced_cells == 0,
           "committed legalize: " + full.legality_summary);
    report.series["setup_s"].push_back(setup.seconds() - quality_s);
    audit(report, s->design(), 0, "resident set-up");
    sessions.push_back(std::move(s));
  }
  report.values["disp_mean_sites"] = median_of(disp);
  report.values["dhpwl_pct"] = median_of(dhpwl);
  std::fprintf(stderr, "eco_50k: %zu sessions, set-up %.2fs each\n",
               sessions.size(), median_of(report.series["setup_s"]));

  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1234);
  // Untimed warm-up: a fresh session's first requests are markedly cheaper
  // than its steady state (its warm starts and GP are still pristine), and a
  // median straddling the two regimes is unstable.
  for (std::size_t r = 0; r < kEcoWarmupPerSession * sessions.size(); ++r) {
    service::LegalizationSession& session = *sessions[r % sessions.size()];
    const service::SessionResult result =
        session.eco(make_eco_request(session, rng));
    audit(report, session.design(), result.allocation.unplaced_cells,
          "eco warm-up request " + std::to_string(r));
  }

  const auto requests = static_cast<std::size_t>(
      std::max(8.0, std::round(kEcoRequestsPerSecond * args.seconds)));
  std::vector<service::SessionResult> results;
  results.reserve(requests);
  std::vector<double> latency_ms, untraced_ms, traced_ms;
  const SchedCounters sched_before = SchedCounters::now();
  double busy = 0.0;
  for (std::size_t r = 0; r < requests; ++r) {
    service::LegalizationSession& session = *sessions[r % sessions.size()];
    const service::EcoRequest request = make_eco_request(session, rng);
    const bool traced = args.trace && r % 2 == 1;
    obs::set_tracing_enabled(traced);
    Timer t;
    service::SessionResult result;
    {
      obs::TraceSpan span("bench.service.session.eco");
      result = session.eco(request);
    }
    const double seconds = t.seconds();
    obs::set_tracing_enabled(false);
    busy += seconds;
    latency_ms.push_back(1e3 * seconds);
    (traced ? traced_ms : untraced_ms).push_back(1e3 * seconds);
    // Untimed independent audit of the resident design after every request.
    audit(report, session.design(), result.allocation.unplaced_cells,
          "eco request " + std::to_string(r));
    results.push_back(std::move(result));
  }
  const SchedCounters sched = SchedCounters::now() - sched_before;
  report.series["request_ms"] = latency_ms;
  // One closed-loop client: requests per second of request time.
  report.values["designs_per_s"] = static_cast<double>(requests) / busy;
  std::fprintf(stderr, "  %zu requests, mean %.1f ms\n", requests,
               mean_of(latency_ms));

  if (!args.trace) return;
  auto& L = report.layers;
  const auto per_req = [&](auto field) {
    std::vector<double> v;
    for (const service::SessionResult& r : results) v.push_back(field(r));
    return mean_of(v);
  };
  using R = service::SessionResult;
  L["service.session.apply_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.apply; });
  L["service.session.rows_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.rows; });
  L["service.session.model_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.model; });
  L["service.session.partition_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.partition; });
  L["service.session.extract_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.extract; });
  L["service.session.solve_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.solve; });
  L["service.session.reuse_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.reuse; });
  L["service.session.allocate_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.allocate; });
  L["service.session.verify_ms"] =
      per_req([](const R& r) { return 1e3 * r.phase.verify; });
  L["service.session.dirty_per_req"] = per_req([](const R& r) {
    return static_cast<double>(r.session.components_dirty);
  });
  L["service.session.reused_per_req"] = per_req([](const R& r) {
    return static_cast<double>(r.session.components_reused);
  });
  double dirty = 0.0, hits = 0.0, fallbacks = 0.0, attempts = 0.0;
  std::vector<double> iterations;
  for (const R& r : results) {
    dirty += static_cast<double>(r.session.components_dirty);
    hits += static_cast<double>(r.session.warm_start_hits);
    fallbacks += static_cast<double>(r.session.full_solve_fallbacks);
    attempts += static_cast<double>(recovery_attempts(r.solver));
    iterations.push_back(static_cast<double>(r.solver.component_iterations));
  }
  L["service.session.warm_rate"] = dirty > 0.0 ? hits / dirty : 0.0;
  L["service.session.fallbacks"] = fallbacks;
  L["lcp.recovery_attempts"] = attempts;
  L["lcp.iterations_per_req"] = mean_of(iterations);
  const std::size_t quarter = std::max<std::size_t>(1, iterations.size() / 4);
  L["lcp.iterations_q1"] = mean_of(
      {iterations.begin(), iterations.begin() + static_cast<long>(quarter)});
  L["lcp.iterations_q4"] = mean_of(
      {iterations.end() - static_cast<long>(quarter), iterations.end()});
  record_sched(report, sched, requests);
  report.values["traced_over_untraced"] =
      mean_of(traced_ms) / mean_of(untraced_ms);
}

// ---------------------------------------------------------------------------
// multi_small: a heterogeneous queue of small designs drained by closed-loop
// clients, each design through its own LegalizationSession::full_legalize.

constexpr std::size_t kMultiDesigns = 120;

db::Design make_multi_design(std::uint64_t seed, std::size_t r) {
  static const std::size_t kSizes[] = {400, 1500, 700, 2400, 550, 1100, 850};
  const std::size_t cells = kSizes[r % (sizeof kSizes / sizeof kSizes[0])];
  gen::GeneratorOptions options;
  options.seed = seed * 1000003ull + 7919 * (r + 1);
  return gen::generate_random_design(cells - cells / 10, cells / 10, 0.7,
                                     options);
}

struct DesignResult {
  std::size_t index = 0;  // position in the queue
  service::SessionResult result;
  db::Design design;  // final placement, audited after the pass
  double seconds = 0.0;
};

struct MultiPass {
  std::vector<DesignResult> done;
  double seconds = 0.0;
};

/// Drains the queue from its head with `clients` closed-loop clients until
/// `budget` seconds have passed (each client finishes its current design).
MultiPass drain(const std::vector<db::Design>& queue, unsigned clients,
                double budget) {
  MultiPass pass;
  std::mutex mutex;
  std::atomic<std::size_t> cursor{0};
  Timer timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<DesignResult> mine;
      while (timer.seconds() < budget) {
        const std::size_t r = cursor.fetch_add(1) % queue.size();
        service::LegalizationSession session(queue[r]);
        DesignResult out;
        out.index = r;
        Timer t;
        {
          obs::TraceSpan span("bench.service.session.full_legalize");
          out.result = session.full_legalize();
        }
        out.seconds = t.seconds();
        out.design = session.design();
        mine.push_back(std::move(out));
      }
      const std::lock_guard<std::mutex> lock(mutex);
      for (DesignResult& d : mine) pass.done.push_back(std::move(d));
    });
  }
  for (std::thread& t : threads) t.join();
  pass.seconds = timer.seconds();
  return pass;
}

void run_multi(const Args& args, Report& report) {
  const std::vector<db::Design> queue = timed_setup(report, 3, [&] {
    std::vector<db::Design> q;
    for (std::size_t r = 0; r < kMultiDesigns; ++r)
      q.push_back(make_multi_design(args.seed, r));
    return q;
  });
  std::fprintf(stderr, "multi_small: %zu designs, %u clients, %u threads\n",
               queue.size(), args.clients, args.threads);

  // Untraced runs spend the whole budget on one pass; traced runs split it
  // into a plain single-thread serial pass (the baseline), an untraced and a
  // traced pass.
  const double budget = args.trace ? args.seconds / 3.0 : args.seconds;
  if (args.trace) {
    runtime::Runtime::configure(1);
    const MultiPass serial = drain(queue, 1, budget);
    report.layers["runtime.serial_1t_designs_per_s"] =
        static_cast<double>(serial.done.size()) / serial.seconds;
    runtime::Runtime::configure(args.threads);
  }
  const SchedCounters sched_before = SchedCounters::now();
  const MultiPass pass = drain(queue, args.clients, budget);
  const SchedCounters sched = SchedCounters::now() - sched_before;

  std::vector<double> ms, iterations, rows, model, solve, tail;
  // Quality is a property of each queued design: count each one once, so
  // it does not depend on how far the timed pass got.
  std::map<std::size_t, std::pair<double, double>> quality;
  double attempts = 0.0;
  for (const DesignResult& d : pass.done) {
    const service::SessionResult& r = d.result;
    ms.push_back(1e3 * d.seconds);
    report.series["legalize_s"].push_back(d.seconds);
    audit(report, d.design, r.allocation.unplaced_cells, "design");
    if (!quality.count(d.index))
      quality[d.index] = {eval::displacement(d.design).mean_sites,
                          100.0 * eval::delta_hpwl_fraction(d.design)};
    iterations.push_back(static_cast<double>(r.solver.component_iterations));
    rows.push_back(1e3 * r.phase.rows);
    model.push_back(1e3 * r.phase.model);
    solve.push_back(1e3 * r.phase.solve);
    tail.push_back(1e3 * (r.phase.total - r.phase.rows - r.phase.model -
                          r.phase.solve));
    attempts += static_cast<double>(recovery_attempts(r.solver));
  }
  std::vector<double> disp, dhpwl;
  for (const auto& [index, q] : quality) {
    disp.push_back(q.first);
    dhpwl.push_back(q.second);
  }
  report.series["request_ms"] = ms;
  report.values["designs_per_s"] =
      static_cast<double>(pass.done.size()) / pass.seconds;
  report.values["disp_mean_sites"] = median_of(disp);
  report.values["dhpwl_pct"] = median_of(dhpwl);
  std::fprintf(stderr, "  %zu designs in %.2fs\n", pass.done.size(),
               pass.seconds);

  if (!args.trace) return;
  auto& L = report.layers;
  L["service.session.rows_ms"] = mean_of(rows);
  L["service.session.model_ms"] = mean_of(model);
  L["service.session.solve_ms"] = mean_of(solve);
  L["service.session.tail_ms"] = mean_of(tail);
  L["lcp.iterations_per_design"] = mean_of(iterations);
  L["lcp.recovery_attempts"] = attempts;
  record_sched(report, sched, pass.done.size());

  obs::set_tracing_enabled(true);
  const MultiPass traced = drain(queue, args.clients, budget);
  obs::set_tracing_enabled(false);
  for (const DesignResult& d : traced.done)
    audit(report, d.design, d.result.allocation.unplaced_cells,
          "traced design");
  report.values["traced_over_untraced"] =
      (static_cast<double>(pass.done.size()) / pass.seconds) /
      (static_cast<double>(traced.done.size()) / traced.seconds);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value);
    else if (key == "--trace") args.trace = std::atoi(value) != 0;
    else if (key == "--threads") args.threads = static_cast<unsigned>(std::atoi(value));
    else if (key == "--clients") args.clients = static_cast<unsigned>(std::atoi(value));
    else if (key == "--out-dir") args.out_dir = value;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         args.threads >= 1 && args.clients >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --threads T --clients C --out-dir DIR\n");
    return 2;
  }
  // Only traced runs schedule artifacts, and tracing stays off except
  // around the samples a traced run marks.
  if (args.trace) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    obs::set_trace_path(stem + ".trace.json");
    obs::set_metrics_path(stem + ".metrics.json");
  }
  obs::set_tracing_enabled(false);
  runtime::Runtime::configure(args.threads);

  Report report;
  if (args.workload == "cold_fft1") {
    run_cold(args, report);
  } else if (args.workload == "eco_50k") {
    run_eco(args, report);
  } else if (args.workload == "multi_small") {
    run_multi(args, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  report.values["peak_rss_mb"] = util::peak_rss_mb();
  if (args.trace) {
    report.layers["trace.dropped_spans"] =
        static_cast<double>(obs::trace_stats().dropped);
    obs::set_metrics_attribute("bench", "perfbench");
    obs::set_metrics_attribute("workload", args.workload);
    obs::set_tracing_enabled(true);  // flush_artifacts skips a disabled trace
    if (!obs::flush_artifacts()) report.fail("could not write trace artifacts");
  }
  std::printf("%s\n", to_json(args, report).c_str());
  return report.failed == 0 ? 0 : 1;
}
