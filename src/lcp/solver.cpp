#include "lcp/solver.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/metrics.h"

namespace mch::lcp {

LcpSolveResult solve_mmsim(const StructuredQp& qp,
                           const LcpSolverConfig& config,
                           SolverWorkspace::Slot* slot, bool warm_start) {
  const MmsimSolver solver(qp, config.mmsim, config.schur_coupling_breaks);
  const std::size_t n = qp.num_variables();
  const std::size_t m = qp.num_constraints();
  MmsimSolver::State fresh;
  const bool warm = slot != nullptr && warm_start &&
                    slot->warm_variables == n && slot->warm_constraints == m &&
                    slot->warm_s.size() == n + m;
  MmsimResult mmsim = solver.solve_finished(
      slot != nullptr ? slot->state : fresh, warm ? &slot->warm_s : nullptr);
  if (slot != nullptr) {
    slot->warm_s = std::move(mmsim.s);
    slot->warm_variables = n;
    slot->warm_constraints = m;
  }
  LcpSolveResult result;
  result.x = std::move(mmsim.x);
  result.dual = std::move(mmsim.dual);
  result.iterations = mmsim.iterations;
  result.converged = mmsim.converged;
  result.finished = mmsim.finished;
  result.warm_started = warm;
  result.setup_seconds = mmsim.setup_seconds;
  result.solve_seconds = mmsim.solve_seconds;
  result.phase = mmsim.phase;
  return result;
}

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kPrimary:
      return "primary";
    case RecoveryRung::kEscalated:
      return "escalated";
    case RecoveryRung::kColdRestart:
      return "cold_restart";
    case RecoveryRung::kExhausted:
      return "exhausted";
  }
  return "unknown";
}

RecoveryOptions resolve_recovery_options(RecoveryOptions base) {
  if (base.forced_failures == 0) {
    if (const char* env = std::getenv("MCH_FORCE_SOLVER_FAILURE")) {
      char* end = nullptr;
      const unsigned long long value = std::strtoull(env, &end, 10);
      if (end != env)
        base.forced_failures = static_cast<std::size_t>(value);
    }
  }
  return base;
}

MmsimOptions escalate_mmsim_options(const StructuredQp& qp,
                                    const MmsimOptions& options,
                                    const RecoveryOptions& recovery,
                                    const std::vector<bool>* breaks) {
  MmsimOptions escalated = options;
  if (qp.num_constraints() > 0)
    escalated.theta = MmsimSolver(qp, options, breaks).suggest_theta();
  escalated.gamma = kEscalatedGamma;
  escalated.max_iterations =
      options.max_iterations *
      std::max<std::size_t>(1, recovery.budget_multiplier);
  return escalated;
}

RecoveredSolve solve_with_recovery(const StructuredQp& qp,
                                   const LcpSolverConfig& config,
                                   const RecoveryOptions& recovery,
                                   SolverWorkspace::Slot* slot,
                                   bool warm_start) {
  RecoveredSolve out;
  const auto attempt = [&](const LcpSolverConfig& cfg, RecoveryRung rung,
                           bool warm) {
    obs::counter("recovery.attempts", "rung", to_string(rung)).add();
    LcpSolveResult result = solve_mmsim(qp, cfg, slot, warm);
    ++out.attempts;
    const bool forced_fail = out.attempts <= recovery.forced_failures;
    if (result.converged && !forced_fail) {
      if (result.warm_started) {
        static obs::Counter& warm_hits =
            obs::counter("solve.warm_start_hits");
        warm_hits.add();
      }
      obs::counter("recovery.solved", "rung", to_string(rung)).add();
      out.result = std::move(result);
      out.rung = rung;
      return true;
    }
    out.wasted_iterations += result.iterations;
    return false;
  };

  if (attempt(config, RecoveryRung::kPrimary, warm_start)) return out;
  if (!recovery.enabled) {
    out.rung = RecoveryRung::kExhausted;
    return out;
  }

  // Rung 1: escalated parameters, warm-started from the failed iterate kept
  // in the slot, so a pure budget exhaustion resumes where it stopped.
  LcpSolverConfig escalated = config;
  escalated.mmsim = escalate_mmsim_options(qp, config.mmsim, recovery,
                                           config.schur_coupling_breaks);
  if (attempt(escalated, RecoveryRung::kEscalated, /*warm=*/slot != nullptr))
    return out;

  // Rung 2: the same parameters from s⁽⁰⁾ = 0 — a different trajectory to
  // the same fixed point.
  if (attempt(escalated, RecoveryRung::kColdRestart, /*warm=*/false))
    return out;

  out.rung = RecoveryRung::kExhausted;
  {
    static obs::Counter& exhausted = obs::counter("recovery.exhausted");
    exhausted.add();
  }
  return out;
}

}  // namespace mch::lcp
