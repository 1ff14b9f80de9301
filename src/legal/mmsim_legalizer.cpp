#include "legal/mmsim_legalizer.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "db/legality.h"
#include "lcp/solver.h"
#include "legal/partition.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "util/check.h"
#include "util/log.h"
#include "util/timer.h"

namespace mch::legal {

namespace {

using lcp::MmsimResidualPartials;
using lcp::MmsimSolver;
using lcp::Vector;
using runtime::parallel_for;

/// Components are heterogeneous units of work; schedule them one at a time.
constexpr std::size_t kGrainComponents = 1;

/// Lane-pipelined component driver with double-buffered extraction — the
/// DMA double-buffer analogue: each lane stages the *next* component's
/// gather tables (extract) before the *current* component's solve (consume)
/// occupies it, so a lane's solve always finds its sub-problem resident and
/// extraction overlaps the other lanes' solves. At most two extractions are
/// live per lane, keeping the streamed drivers' bounded high-water mark.
///
/// extract(i) must be pure (it may run in any order, on any thread) and
/// consume(i, problem) must write only i-keyed state — under those rules
/// the results are schedule-independent exactly like a plain parallel_for.
/// Lanes claim component indices from a shared cursor.
template <typename ExtractFn, typename ConsumeFn>
void staged_component_loop(std::size_t num, ExtractFn&& extract,
                           ConsumeFn&& consume) {
  if (num < 2) {
    parallel_for(std::size_t{0}, num, kGrainComponents,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     consume(i, extract(i));
                 });
    return;
  }
  static obs::Counter& staged_extractions =
      obs::counter("sched.staged_extractions");
  const std::size_t lanes = std::min<std::size_t>(
      runtime::Runtime::instance().threads(), num);
  std::atomic<std::size_t> cursor{0};
  parallel_for(std::size_t{0}, lanes, 1, [&](std::size_t, std::size_t) {
    std::size_t current = cursor.fetch_add(1, std::memory_order_relaxed);
    if (current >= num) return;
    ComponentProblem buffer = extract(current);
    for (;;) {
      const std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
      std::optional<ComponentProblem> prefetched;
      if (next < num) {
        prefetched.emplace(extract(next));
        staged_extractions.add();
      }
      consume(current, std::move(buffer));
      if (next >= num) return;
      buffer = std::move(*prefetched);
      current = next;
    }
  });
}

PartitionMode resolve_partition_mode(PartitionMode requested) {
  if (requested != PartitionMode::kAuto) return requested;
  if (const char* env = std::getenv("MCH_PARTITION")) {
    const std::string value(env);
    if (value == "off") return PartitionMode::kOff;
    if (value == "match") return PartitionMode::kMatch;
    if (value == "tiered") return PartitionMode::kTiered;
    if (!value.empty()) {
      MCH_LOG(kWarn) << "unknown MCH_PARTITION value '" << value
                     << "'; using match";
    }
  }
  return PartitionMode::kMatch;
}

/// What every solve driver produces; one shared epilogue consumes it.
struct SolveOutcome {
  Vector x;  ///< global primal solution
  std::size_t iterations = 0;
  bool converged = false;
  /// Cells of components solve_components gave up on: their slots in x
  /// hold row-assigned snap positions, and the write-back clamps them into
  /// the chip instead of trusting an unconverged iterate.
  std::vector<std::size_t> clamped_cells;
};

/// Extracts every component sub-problem. Element slots are pre-sized so the
/// parallel writes are disjoint and the result is schedule-independent.
std::vector<ComponentProblem> extract_components(
    const LegalizationModel& model, const ConstraintPartition& partition) {
  std::vector<ComponentProblem> components(partition.num_components());
  parallel_for(std::size_t{0}, components.size(), kGrainComponents,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t c = lo; c < hi; ++c)
                   components[c] = model.component_problem(
                       partition.component_variables[c],
                       partition.component_constraints[c]);
               });
  return components;
}

/// Monolithic reference path (PartitionMode::kOff). Iterates in workspace
/// slot 0's buffers (always from the cold start, so results are unchanged)
/// to avoid reallocating the iteration state on every outer call.
SolveOutcome solve_monolithic(const LegalizationModel& model,
                              const lcp::MmsimOptions& mmsim_options,
                              lcp::SolverWorkspace& workspace,
                              MmsimLegalizerStats& stats) {
  obs::TraceSpan span("solve.monolithic");
  const MmsimSolver solver(model.qp, mmsim_options);
  workspace.prepare(1);
  lcp::MmsimResult result = solver.solve_in(workspace.slot(0).state);
  span.arg("iterations", result.iterations)
      .arg("converged", result.converged);
  if (!result.converged) {
    MCH_LOG(kWarn) << "MMSIM did not converge in " << result.iterations
                   << " iterations (delta " << result.final_delta << ")";
  }
  stats.phase.accumulate(result.phase);
  SolveOutcome outcome;
  outcome.x = std::move(result.x);
  outcome.iterations = result.iterations;
  outcome.converged = result.converged;
  return outcome;
}

/// Lockstep driver (PartitionMode::kMatch): every component advances one
/// MMSIM iteration per round, and the stopping rule is the monolithic one —
/// per-component deltas and residual partials fold by max, which is exactly
/// the ∞-norm of the concatenated system. All iterates are therefore
/// bitwise equal to the monolithic solver's, at any thread count.
SolveOutcome solve_lockstep(const LegalizationModel& model,
                            const std::vector<ComponentProblem>& components,
                            const lcp::MmsimOptions& mmsim_options,
                            lcp::SolverWorkspace& workspace,
                            MmsimLegalizerStats& stats) {
  obs::TraceSpan span("solve.lockstep");
  const std::size_t num = components.size();
  span.arg("components", num);
  workspace.prepare(num);
  std::vector<std::unique_ptr<MmsimSolver>> solvers(num);
  // States live in the workspace slots: reset_state() reuses their capacity,
  // so re-entering the legalizer allocates nothing per component here. The
  // start is always cold — kMatch is bitwise-contracted to the monolithic
  // reference.
  parallel_for(std::size_t{0}, num, kGrainComponents,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t c = lo; c < hi; ++c) {
                   solvers[c] = std::make_unique<MmsimSolver>(
                       components[c].qp, mmsim_options,
                       &components[c].schur_coupling_breaks);
                   solvers[c]->reset_state(workspace.slot(c).state);
                 }
               });

  std::vector<double> deltas(num, 0.0);
  std::vector<MmsimResidualPartials> partials(num);
  SolveOutcome outcome;
  for (std::size_t k = 0; k < mmsim_options.max_iterations; ++k) {
    parallel_for(std::size_t{0}, num, kGrainComponents,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t c = lo; c < hi; ++c)
                     deltas[c] = solvers[c]->step(workspace.slot(c).state);
                 });
    double delta = 0.0;
    for (const double d : deltas) delta = std::max(delta, d);
    outcome.iterations = k + 1;
    if (k > 0 && delta < mmsim_options.tolerance) {
      bool stop = true;
      if (mmsim_options.residual_check) {
        parallel_for(std::size_t{0}, num, kGrainComponents,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t c = lo; c < hi; ++c)
                         partials[c] = solvers[c]->residual_partials(
                             workspace.slot(c).state.z);
                     });
        MmsimResidualPartials merged;
        for (const MmsimResidualPartials& p : partials) merged.merge_max(p);
        stop = MmsimSolver::residual_ok(merged,
                                        mmsim_options.residual_tolerance);
      }
      if (stop) {
        outcome.converged = true;
        break;
      }
    }
  }
  if (!outcome.converged) {
    MCH_LOG(kWarn) << "lockstep MMSIM did not converge in "
                   << outcome.iterations << " iterations over " << num
                   << " components";
  }

  // Scatter the primal prefix of each component's iterate straight from the
  // workspace (the slot keeps its buffers for the next call).
  outcome.x.assign(model.num_variables(), 0.0);
  for (std::size_t c = 0; c < num; ++c) {
    const Vector& z = workspace.slot(c).state.z;
    for (std::size_t v = 0; v < components[c].variables.size(); ++v)
      outcome.x[components[c].variables[v]] = z[v];
    stats.phase.accumulate(workspace.slot(c).state.phase);
  }

  stats.components_mmsim = num;
  stats.component_iterations = outcome.iterations * num;
  return outcome;
}

/// Runs solve_components over every component of the partition, each job
/// backed by the workspace slot of its component id. Two callers:
///
///   * the tiered pass (PartitionMode::kTiered) and its escalated retry,
///     with the ladder off: every component terminates on its own.
///     run_mode has already consumed the forced failures, and a failed
///     pass is answered by the escalated retry or the rungs below, so
///     stats.recovery stays untouched. The per-pass counters are
///     overwritten (a retry does not double-count) and include the
///     iterations of the components that failed the pass;
///   * rungs 2+ of the escalation ladder, with the real ladder: components
///     that already converge pass straight through their primary solve,
///     failing ones walk escalated → cold-restart MMSIM, and exhausted ones
///     degrade to snap clamps recorded as SolveFailures — never an
///     unconverged iterate.
SolveOutcome solve_every_component(const db::Design& design,
                                   const LegalizationModel& model,
                                   const ConstraintPartition& partition,
                                   MmsimLegalizerOptions options,
                                   const lcp::MmsimOptions& mmsim_options,
                                   const lcp::RecoveryOptions& ladder,
                                   lcp::SolverWorkspace& workspace,
                                   MmsimLegalizerStats& stats) {
  const std::size_t num = partition.num_components();
  workspace.prepare(num);
  std::vector<ComponentSolveJob> jobs(num);
  for (std::size_t c = 0; c < num; ++c)
    jobs[c] = {&partition.component_variables[c],
               &partition.component_constraints[c], &workspace.slot(c), c};
  options.mmsim = mmsim_options;

  SolveOutcome outcome;
  outcome.x.assign(model.num_variables(), 0.0);
  ComponentSolveReport report =
      solve_components(design, model, jobs, options, ladder, outcome.x);
  outcome.converged = report.converged;
  outcome.iterations = report.iterations;
  outcome.clamped_cells = std::move(report.clamped_cells);
  stats.phase.accumulate(report.phase);

  if (!ladder.enabled) {
    stats.components_mmsim = report.components_mmsim;
    stats.component_iterations = report.component_iterations;
    for (const SolveFailure& failure : report.recovery.failures) {
      outcome.iterations = std::max(outcome.iterations, failure.iterations);
      stats.component_iterations += failure.iterations;
    }
    return outcome;
  }
  // Every component counts as routed through the ladder here (the report
  // itself only counts beyond-primary ladders).
  RecoveryStats& recovery = stats.recovery;
  recovery.component_ladders += num;
  recovery.ladder_attempts += report.recovery.ladder_attempts;
  recovery.extra_iterations += report.recovery.extra_iterations;
  recovery.recovered_components += report.recovery.recovered_components;
  recovery.clamped_components += report.recovery.clamped_components;
  recovery.clamped_cells += report.recovery.clamped_cells;
  for (SolveFailure& failure : report.recovery.failures)
    recovery.failures.push_back(std::move(failure));
  return outcome;
}

}  // namespace

ComponentSolveReport solve_components(const db::Design& design,
                                      const LegalizationModel& model,
                                      const std::vector<ComponentSolveJob>& jobs,
                                      const MmsimLegalizerOptions& options,
                                      const lcp::RecoveryOptions& recovery,
                                      Vector& x) {
  const std::size_t num = jobs.size();
  // Largest-first: the big sub-problems start early instead of trailing
  // behind the tail, and their extractions never pile up concurrently.
  // Each result depends only on its job's QP and slot, and the report
  // below folds in job order, so the schedule changes no output.
  const auto job_size = [&](std::size_t j) {
    return jobs[j].variables->size() + jobs[j].constraints->size();
  };
  std::vector<std::size_t> order(num);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t sa = job_size(a);
    const std::size_t sb = job_size(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });

  std::vector<lcp::RecoveredSolve> recovered(num);
  staged_component_loop(
      num,
      [&](std::size_t i) {
        const std::size_t c = order[i];
        obs::TraceSpan span("solve.extract");
        span.arg("component", jobs[c].component_id)
            .arg("vars", jobs[c].variables->size())
            .arg("rows", jobs[c].constraints->size());
        return model.component_problem(*jobs[c].variables,
                                       *jobs[c].constraints);
      },
      [&](std::size_t i, ComponentProblem component) {
        const std::size_t c = order[i];
        const auto& vars = *jobs[c].variables;
        obs::TraceSpan span("solve.component");
        span.arg("component", jobs[c].component_id)
            .arg("vars", vars.size())
            .arg("rows", jobs[c].constraints->size());
        // Extract, solve, scatter, release: at most two sub-problems per
        // lane are ever live (the staged one plus the solving one),
        // whatever the job count.
        lcp::LcpSolverConfig config;
        config.mmsim = options.mmsim;
        config.schur_coupling_breaks = &component.schur_coupling_breaks;
        // Warm start from the slot's previous solve when the shape still
        // matches: every solve here terminates on tolerance, so a warm
        // start only trims iterations (kOff/kMatch stay cold for their
        // bitwise contracts). Distinct jobs must hold distinct slots (the
        // caller's contract), so the parallel solves never share one.
        recovered[c] = lcp::solve_with_recovery(
            component.qp, config, recovery, jobs[c].slot,
            /*warm_start=*/true);
        span.arg("iterations", recovered[c].result.iterations)
            .arg("rung", lcp::to_string(recovered[c].rung))
            .arg("warm", recovered[c].result.warm_started)
            .arg("finished", recovered[c].result.finished);
        if (recovered[c].rung != lcp::RecoveryRung::kExhausted) {
          // Variable sets are disjoint across jobs (caller's contract),
          // so the shared writes are race-free.
          for (std::size_t v = 0; v < vars.size(); ++v)
            x[vars[v]] = recovered[c].result.x[v];
          recovered[c].result.x = Vector();
          recovered[c].result.dual = Vector();
        }
      });

  ComponentSolveReport report;
  report.components_mmsim = num;
  const double chip_width = design.chip().width();
  for (std::size_t c = 0; c < num; ++c) {
    const std::vector<index_t>& vars = *jobs[c].variables;
    const lcp::RecoveredSolve& rec = recovered[c];
    report.recovery.ladder_attempts += rec.attempts;
    report.recovery.extra_iterations += rec.wasted_iterations;
    if (rec.attempts > 1 || rec.rung != lcp::RecoveryRung::kPrimary)
      ++report.recovery.component_ladders;
    if (rec.rung == lcp::RecoveryRung::kExhausted) {
      report.converged = false;
      SolveFailure failure;
      failure.component = jobs[c].component_id;
      failure.num_variables = vars.size();
      failure.num_constraints = jobs[c].constraints->size();
      failure.attempts = rec.attempts;
      failure.iterations = rec.wasted_iterations;
      for (std::size_t v = 0; v < vars.size(); ++v) {
        const std::size_t g = vars[v];
        const std::size_t cell = model.variables[g].cell;
        const db::Cell& info = design.cells()[cell];
        x[g] = std::clamp(info.gp_x, 0.0,
                          std::max(0.0, chip_width - info.width));
        // Variable order groups a cell's subcells contiguously, so a
        // back()-check is a full dedup.
        if (failure.cells.empty() || failure.cells.back() != cell)
          failure.cells.push_back(cell);
      }
      report.clamped_cells.insert(report.clamped_cells.end(),
                                  failure.cells.begin(),
                                  failure.cells.end());
      report.recovery.clamped_cells += failure.cells.size();
      ++report.recovery.clamped_components;
      if (recovery.enabled) {
        MCH_LOG(kWarn) << "solver recovery: " << failure.summary();
      } else {
        // A primary-only pass: the caller decides what follows (the
        // legalizer's escalated retry), so this is no ladder exhaustion.
        MCH_LOG(kWarn) << "component " << failure.component << " (size "
                       << failure.num_variables + failure.num_constraints
                       << ") did not converge in " << failure.iterations
                       << " iterations";
      }
      report.recovery.failures.push_back(std::move(failure));
    } else {
      if (rec.rung != lcp::RecoveryRung::kPrimary)
        ++report.recovery.recovered_components;
      if (rec.result.warm_started) ++report.warm_started;
      // x was scattered inside the worker, before the sub-problem was
      // released.
      report.iterations = std::max(report.iterations, rec.result.iterations);
      report.component_iterations += rec.result.iterations;
      report.phase.accumulate(rec.result.phase);
    }
  }
  return report;
}

std::string SolveFailure::summary() const {
  std::ostringstream os;
  if (component == kMonolithic)
    os << "monolithic system";
  else
    os << "component " << component;
  os << " (" << num_variables << " variables, " << num_constraints
     << " constraints) exhausted the escalation ladder after " << attempts
     << " attempts / " << iterations << " iterations; " << cells.size()
     << " cell(s) clamped to snap positions";
  return os.str();
}

const char* to_string(PartitionMode mode) {
  switch (mode) {
    case PartitionMode::kAuto:
      return "auto";
    case PartitionMode::kOff:
      return "off";
    case PartitionMode::kMatch:
      return "match";
    case PartitionMode::kTiered:
      return "tiered";
  }
  return "unknown";
}

MmsimLegalizerStats mmsim_legalize_continuous(
    db::Design& design, const RowAssignment& base_rows,
    const MmsimLegalizerOptions& options) {
  MmsimLegalizerStats stats;

  const PartitionMode mode = resolve_partition_mode(options.partition);

  // Partition state, declared before the model so the streamed build can
  // deposit the partition as a by-product of constraint emission.
  ConstraintPartition partition;
  bool have_partition = false;

  Timer model_timer;
  LegalizationModel built_model;
  if (options.prebuilt_model == nullptr) {
    obs::TraceSpan span("legalize.model_build");
    // Partitioned modes fold the union-find into the streaming build: the
    // edges are united as each constraint row is emitted, so the separate
    // whole-model partition walk disappears.
    const bool want_partition = mode != PartitionMode::kOff;
    built_model = build_model(design, base_rows, options.model,
                              want_partition ? &partition : nullptr);
    have_partition = want_partition;
    span.arg("variables", built_model.num_variables())
        .arg("constraints", built_model.qp.num_constraints());
  }
  const LegalizationModel& model =
      options.prebuilt_model != nullptr ? *options.prebuilt_model
                                        : built_model;
  if (options.prebuilt_model != nullptr) {
    // The prebuilt model must describe exactly this design state; the row
    // assignment is the cheapest complete witness of that.
    MCH_CHECK_MSG(model.base_rows == base_rows,
                  "prebuilt model was built for a different row assignment");
    MCH_CHECK(model.cell_first_var.size() == design.num_cells());
  }
  stats.model_seconds = model_timer.seconds();
  stats.num_variables = model.num_variables();
  stats.num_constraints = model.qp.num_constraints();
  obs::sample_rss("model_build");

  const lcp::MmsimOptions& mmsim_options = options.mmsim;
  stats.simd_level = linalg::simd_level();

  // Wall clock over the entire solve section — partitioning, per-solver
  // setup, and the iterations — so solve_seconds means the same thing in
  // every mode. The span mirrors the timer (optional so it can end
  // before the write-back without re-scoping the whole section).
  std::optional<obs::TraceSpan> solve_span;
  solve_span.emplace("legalize.solve");
  solve_span->arg("mode", to_string(mode))
      .arg("simd", linalg::simd_level_name(stats.simd_level));
  Timer solve_timer;

  // The workspace arena the solve drivers iterate in. The thread-local
  // default gives buffer reuse across outer calls with zero caller changes;
  // it is per-thread, so concurrent legalizer calls never share an arena: a
  // thread (client or pool worker) runs one legalize call at a time, since
  // a nested parallel_for runs inline and a top-level one blocks its
  // submitter. The drivers' own parallel chunks may execute on any worker,
  // but each slot is only ever touched under its component index, so slots
  // stay disjoint. Its warm-start payloads were left by whatever this
  // thread legalized last, so they are dropped on entry: a one-shot call
  // must not depend on the thread's history. Warm starts within this call
  // (the escalated retry) and from a caller-supplied arena (the session)
  // are unaffected.
  static thread_local lcp::SolverWorkspace default_workspace;
  if (options.workspace == nullptr) default_workspace.forget_warm_starts();
  lcp::SolverWorkspace& workspace =
      options.workspace != nullptr ? *options.workspace : default_workspace;

  // Partition lazily: the partitioned modes need it up front (streamed out
  // of the model build above, or handed in by the session), the monolithic
  // mode only on the recovery path.
  std::vector<ComponentProblem> components;
  bool partitioned = false;
  const auto ensure_partitioned = [&] {
    if (partitioned) return;
    obs::TraceSpan span("legalize.partition");
    if (!have_partition) {
      if (options.prebuilt_partition != nullptr)
        partition = *options.prebuilt_partition;
      else
        partition = partition_model(model);
      have_partition = true;
    }
    stats.num_components = partition.num_components();
    stats.max_component_size = partition.max_component_size();
    stats.mean_component_size = partition.mean_component_size();
    // Lockstep needs every per-component solver alive at once, so kMatch
    // extracts everything up front; solve_components extracts one
    // component per lane instead.
    if (mode == PartitionMode::kMatch)
      components = extract_components(model, partition);
    partitioned = true;
    span.arg("components", partition.num_components())
        .arg("max_size", partition.max_component_size());
  };

  const lcp::RecoveryOptions recovery =
      lcp::resolve_recovery_options(options.recovery);
  std::size_t attempts = 0;
  const auto run_mode = [&](const lcp::MmsimOptions& mo) {
    SolveOutcome o;
    if (mode == PartitionMode::kOff) {
      o = solve_monolithic(model, mo, workspace, stats);
    } else {
      ensure_partitioned();
      if (mode == PartitionMode::kMatch) {
        o = solve_lockstep(model, components, mo, workspace, stats);
      } else {
        lcp::RecoveryOptions primary_only;
        primary_only.enabled = false;
        primary_only.forced_failures = 0;
        o = solve_every_component(design, model, partition, options, mo,
                                  primary_only, workspace, stats);
      }
    }
    ++attempts;
    // Fault injection: the mode-level solve and its escalated retry consume
    // the first forced failures; the remainder is passed down to the
    // per-component ladders.
    if (recovery.enabled && attempts <= recovery.forced_failures)
      o.converged = false;
    return o;
  };

  SolveOutcome outcome = run_mode(mmsim_options);
  double theta_used = mmsim_options.theta;

  if (!outcome.converged && recovery.enabled) {
    // Rung 1 (whole solve): escalated parameters. θ* is re-probed on the
    // monolithic system so kOff and kMatch retries stay bitwise identical
    // to each other, preserving the lockstep contract under recovery.
    ++stats.recovery.escalations;
    obs::counter("recovery.escalations").add();
    stats.recovery.extra_iterations += outcome.iterations;
    const lcp::MmsimOptions escalated =
        lcp::escalate_mmsim_options(model.qp, mmsim_options, recovery);
    SolveOutcome retry = run_mode(escalated);
    if (retry.converged) {
      outcome = std::move(retry);
      theta_used = escalated.theta;
    } else {
      // Rungs 2+: decompose (if not already) and walk the per-component
      // solver ladder, degrading exhausted components to snap clamps.
      stats.recovery.extra_iterations += retry.iterations;
      ensure_partitioned();
      lcp::RecoveryOptions ladder = recovery;
      ladder.forced_failures = recovery.forced_failures > attempts
                                   ? recovery.forced_failures - attempts
                                   : 0;
      outcome = solve_every_component(design, model, partition, options,
                                      mmsim_options, ladder, workspace,
                                      stats);
      theta_used = escalated.theta;
    }
  }
  stats.solve_seconds = solve_timer.seconds();
  solve_span->arg("iterations", outcome.iterations)
      .arg("converged", outcome.converged);
  solve_span.reset();
  obs::sample_rss("solve");
  {
    static obs::Counter& solves = obs::counter("legalize.solves");
    solves.add();
    obs::histogram("legalize.solve_seconds").observe(stats.solve_seconds);
    obs::histogram("legalize.model_seconds").observe(stats.model_seconds);
  }

  stats.theta_used = theta_used;
  stats.iterations = outcome.iterations;
  stats.converged = outcome.converged;
  stats.max_mismatch = model.max_mismatch(outcome.x);
  stats.objective = model.qp.objective(outcome.x);

  {
    obs::TraceSpan span("legalize.write_back");
    span.arg("cells", design.num_cells())
        .arg("clamped", outcome.clamped_cells.size());
    std::vector<char> clamped;
    if (!outcome.clamped_cells.empty()) {
      clamped.assign(design.num_cells(), 0);
      for (const std::size_t c : outcome.clamped_cells) clamped[c] = 1;
    }
    for (std::size_t c = 0; c < design.num_cells(); ++c) {
      if (design.cells()[c].fixed || design.cells()[c].erased) continue;
      double x = model.cell_x(outcome.x, c);
      if (!clamped.empty() && clamped[c]) {
        x = std::clamp(
            x, 0.0,
            std::max(0.0, design.chip().width() - design.cells()[c].width));
      }
      design.cells()[c].x = x;
      design.cells()[c].y = design.chip().row_y(base_rows[c]);
    }
  }
  obs::sample_rss("write_back");

  // Gate: whenever recovery engaged or the solve stayed unconverged, audit
  // the written-back result so no failure leaves the legalizer unverified.
  // The result is continuous (pre-snap), so sites are not required yet.
  // A converged relaxation with nothing clamped can still leave pre-snap
  // overlaps, mostly against fixed macros, that Tetris allocation resolves;
  // only an unconverged or clamped solve makes a failed audit a warning.
  if (stats.recovery.attempted() || !stats.converged) {
    db::LegalityOptions audit;
    audit.require_site_alignment = false;
    audit.tolerance = options.audit_tolerance;
    const db::LegalityReport report = db::check_legality(design, audit);
    stats.recovery.audit_ran = true;
    stats.recovery.audit_legal = report.legal();
    stats.recovery.audit_summary = report.summary();
    if (!report.legal()) {
      if (stats.converged && outcome.clamped_cells.empty()) {
        MCH_LOG(kInfo) << "pre-snap audit after a converged escalated solve: "
                       << report.summary();
      } else {
        MCH_LOG(kWarn) << "post-recovery legality audit failed: "
                       << report.summary();
      }
    }
  }

  // Session hooks: hand the resident caller the raw solution and the
  // partition (empty when the monolithic path never needed one).
  if (options.solution_out != nullptr)
    *options.solution_out = std::move(outcome.x);
  if (options.partition_out != nullptr)
    *options.partition_out =
        partitioned ? std::move(partition) : ConstraintPartition{};
  return stats;
}

}  // namespace mch::legal
