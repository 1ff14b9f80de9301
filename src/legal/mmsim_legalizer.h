// MMSIM legalization step: model build + Algorithm 1 + subcell restore.
//
// Produces the continuous, row-aligned placement that is optimal for the
// relaxed problem (13); the Tetris-like allocation then snaps it to sites
// and repairs right-boundary spills. Split from the flow driver so the
// optimality experiments (§5.3) can run the solver in isolation.
//
// The solve decomposes over the connected components of the constraint
// graph (legal/partition.h): obstacles break the row chains, and rows that
// share no tall cell are independent, so real designs fall apart into many
// small sub-problems. Three execution modes:
//
//   * kOff    — the legacy monolithic solve (escape hatch / reference);
//   * kMatch  — per-component MMSIM solvers advanced in lockstep under the
//               monolithic stopping rule. Every kernel of the iteration is
//               elementwise, per-block, per-row, or max-fold, so the
//               per-component iterates are bitwise identical to the
//               monolithic iterates restricted to the component — this mode
//               produces the exact monolithic result while parallelizing
//               the otherwise-serial Thomas stage across components;
//   * kTiered — per-component MMSIM with the exact active-set finisher
//               (lcp::solve_mmsim) and independent termination: each
//               component stops as soon as *it* converges, which is where
//               the decomposition's iteration savings come from. Results
//               agree with the monolithic solve to solver tolerance.
//
// Three drivers serve them: the monolithic reference (kOff), the lockstep
// driver (kMatch), and solve_components (below) — the one per-component
// driver. kTiered's pass and its escalated retry, recovery rungs 2+ in
// every mode, and the resident session's ECO requests all solve their
// components through it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "db/design.h"
#include "lcp/mmsim.h"
#include "lcp/solver.h"
#include "lcp/workspace.h"
#include "linalg/simd.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"

namespace mch::legal {

/// How the legalizer decomposes (or not) the relaxed LCP.
enum class PartitionMode {
  /// Resolve from the MCH_PARTITION environment variable
  /// ("off" | "match" | "tiered"); defaults to kMatch when unset.
  kAuto,
  kOff,     ///< monolithic solve — the pre-decomposition code path
  kMatch,   ///< lockstep per-component MMSIM, bitwise equal to kOff
  kTiered,  ///< per-component MMSIM + finisher, independent termination
};

const char* to_string(PartitionMode mode);

/// Machine-readable record of one component (or the monolithic system) that
/// exhausted every rung of the escalation ladder. The affected cells were
/// clamped to their row-assigned snap positions instead of receiving an
/// unconverged iterate; downstream consumers decide whether to re-run,
/// reject, or ship with the documented degradation.
struct SolveFailure {
  /// Component index within the partition that was recovered; kMonolithic
  /// when the failure covers the whole undecomposed system.
  static constexpr std::size_t kMonolithic = static_cast<std::size_t>(-1);
  std::size_t component = kMonolithic;
  std::size_t num_variables = 0;
  std::size_t num_constraints = 0;
  std::size_t attempts = 0;    ///< ladder attempts before giving up
  std::size_t iterations = 0;  ///< iterations burned across those attempts
  std::vector<std::size_t> cells;  ///< cells clamped to snap positions

  /// One-line human-readable form (cells listed by count, not id).
  std::string summary() const;
};

/// What the escalation ladder did during one legalization solve. All-zero
/// (attempted() == false) on the happy path: recovery only engages after a
/// failure, so converged runs stay bitwise identical to a recovery-free
/// build.
struct RecoveryStats {
  std::size_t escalations = 0;        ///< whole-solve escalated retries
  std::size_t component_ladders = 0;  ///< components routed through the
                                      ///< per-component solver ladder
  std::size_t ladder_attempts = 0;    ///< total attempts across those ladders
  std::size_t recovered_components = 0;  ///< ladder successes past the
                                         ///< primary rung
  std::size_t clamped_components = 0;    ///< ladders exhausted → snap-clamped
  std::size_t clamped_cells = 0;
  std::size_t extra_iterations = 0;  ///< iterations burned by failed attempts
  /// Post-write-back legality audit (pre-snap tolerances: sites not yet
  /// required). Runs whenever recovery engaged or the solve stayed
  /// unconverged, so no failure leaves the legalizer unverified.
  bool audit_ran = false;
  bool audit_legal = false;
  std::string audit_summary;
  /// Structured record per clamped component.
  std::vector<SolveFailure> failures;

  bool attempted() const {
    return escalations > 0 || component_ladders > 0;
  }
};

struct MmsimLegalizerOptions {
  ModelOptions model;        ///< λ penalty (paper: 1000)
  lcp::MmsimOptions mmsim;   ///< β*, θ*, γ, tolerance (paper: 0.5/0.5)
  PartitionMode partition = PartitionMode::kAuto;
  /// Solver scratch arena reused across components and across calls (see
  /// lcp/workspace.h). Not owned; must outlive the call. When null the
  /// legalizer uses a thread-local default arena, so repeated calls from
  /// the same thread still reuse buffers; its warm-start payloads are
  /// dropped on entry, so the result does not depend on what the thread
  /// legalized before. Pass an explicit arena to share warm starts across
  /// call sites or to control its lifetime. Only the
  /// tiered mode warm-starts from the arena's previous solutions; kOff and
  /// kMatch use it for buffer reuse only, preserving their bitwise
  /// cold-start contracts.
  lcp::SolverWorkspace* workspace = nullptr;
  /// Non-convergence escalation ladder (see lcp/solver.h). forced_failures
  /// is additionally resolved from MCH_FORCE_SOLVER_FAILURE for the
  /// fault-injection ctest variant. Disable to surface converged == false
  /// without retrying (tests of the surfacing path only): kOff and kMatch
  /// then write back the unconverged iterate, while kTiered snap-clamps the
  /// unconverged components like every solve_components failure.
  lcp::RecoveryOptions recovery;
  /// Absolute tolerance of the post-recovery legality audit. The audited
  /// result is continuous (pre-snap), so the tolerance must absorb solver
  /// tolerance and residual λ-mismatch; 1e-2 is far below a site width.
  double audit_tolerance = 1e-2;

  // Session hooks (src/service/): a resident session builds the model once
  // per request itself and keeps the solution/partition across requests.

  /// When set, the legalizer uses this model instead of building its own.
  /// Must have been built from the same design and the same base_rows
  /// (checked); not owned, must outlive the call.
  const LegalizationModel* prebuilt_model = nullptr;
  /// Optional partition of prebuilt_model (e.g. streamed out of
  /// build_model's partition_out). Lets the legalizer skip its own
  /// union-find pass; must match prebuilt_model. Not owned.
  const ConstraintPartition* prebuilt_partition = nullptr;
  /// When set, receives the continuous per-variable solution (the global x
  /// the restored cell positions are means of).
  lcp::Vector* solution_out = nullptr;
  /// When set, receives the constraint partition if the solve computed one
  /// (always under kMatch/kTiered; under kOff only when recovery had to
  /// decompose). Left empty otherwise.
  ConstraintPartition* partition_out = nullptr;
};

struct MmsimLegalizerStats {
  std::size_t num_variables = 0;
  std::size_t num_constraints = 0;
  /// Monolithic / kMatch: global MMSIM iterations. kTiered: the maximum
  /// over components — the parallel critical path.
  std::size_t iterations = 0;
  bool converged = false;
  double max_mismatch = 0.0;     ///< worst subcell disagreement before restore
  double theta_used = 0.0;
  double model_seconds = 0.0;
  /// Wall-clock time of the whole solve section, including partitioning
  /// and solver setup.
  double solve_seconds = 0.0;
  double objective = 0.0;        ///< relaxed QP objective at the solution

  // Decomposition stats (zero when the monolithic path ran).
  std::size_t num_components = 0;
  std::size_t max_component_size = 0;    ///< largest per-component n + m
  double mean_component_size = 0.0;
  std::size_t components_mmsim = 0;      ///< components solved by MMSIM
  /// Total iterations summed over components. Under
  /// kTiered this is the decomposition's headline saving: components stop
  /// independently instead of all running to the slowest one's count.
  std::size_t component_iterations = 0;
  /// Active SIMD dispatch level during the solve.
  linalg::SimdLevel simd_level = linalg::SimdLevel::kScalar;
  /// Per-phase MMSIM solve time summed over components in component order
  /// (deterministic). Only systems of ≥ 256 LCP variables contribute — see
  /// lcp::MmsimPhaseTimes — so the sum can be well below solve_seconds.
  lcp::MmsimPhaseTimes phase;

  /// Escalation-ladder activity. attempted() == false on the happy path;
  /// clamped_components > 0 (with per-failure records in failures) when the
  /// ladder was exhausted somewhere — in that case converged is false and
  /// the affected cells hold snap positions, never an unconverged iterate.
  RecoveryStats recovery;
};

/// Solves the relaxed problem for the given row assignment and writes the
/// restored positions (continuous x, row-aligned y) into the design.
MmsimLegalizerStats mmsim_legalize_continuous(
    db::Design& design, const RowAssignment& base_rows,
    const MmsimLegalizerOptions& options = {});

/// One component-solve job for solve_components: the component's sorted
/// variable and constraint index lists (typically pointers straight into a
/// ConstraintPartition — the sub-problem itself is extracted inside the
/// solve, one live extraction per worker), the workspace slot that backs
/// (and may warm-start) it, and the component's id in its partition for
/// failure records.
struct ComponentSolveJob {
  const std::vector<index_t>* variables = nullptr;
  const std::vector<index_t>* constraints = nullptr;
  lcp::SolverWorkspace::Slot* slot = nullptr;
  std::size_t component_id = 0;
};

/// What solve_components did, in the same vocabulary as
/// MmsimLegalizerStats: component count, iteration max/sum, ladder
/// activity, and the cells that had to be snap-clamped.
struct ComponentSolveReport {
  std::size_t iterations = 0;            ///< max over jobs (critical path)
  std::size_t component_iterations = 0;  ///< summed over jobs
  std::size_t components_mmsim = 0;
  /// Jobs whose accepted solve actually started from a matching warm-start
  /// payload in its slot.
  std::size_t warm_started = 0;
  bool converged = true;  ///< false iff some ladder was exhausted
  lcp::MmsimPhaseTimes phase;
  RecoveryStats recovery;  ///< ladder attempts, clamps, failure records
  /// Cells of exhausted components; their entries in x hold snap positions
  /// (gp_x clamped into the chip) and the caller must clamp the restored
  /// position the same way the legalizer does.
  std::vector<std::size_t> clamped_cells;
};

/// Solves an explicit set of components of `model` — each by MMSIM with the
/// finisher (lcp::solve_mmsim) under the per-component escalation ladder —
/// and scatters every primal solution into the global vector `x` (entries
/// of other components are left untouched). Jobs run in parallel, largest
/// (n + m) first; each job's sub-problem is extracted, solved, scattered,
/// and released inside its lane, with the next one staged while it solves,
/// so at most two extractions per lane are live at a time. Each slot
/// warm-starts its solve when it holds a matching-shape payload, and
/// exhausted ladders degrade to snap clamps. The report folds in job order,
/// so neither the schedule nor the thread count changes any output. With
/// recovery.enabled == false a failed primary solve is snap-clamped at
/// once; the legalizer's tiered pass runs that way and escalates the whole
/// pass itself. This is the one per-component driver: the legalizer's
/// tiered pass and recovery rungs and the session's ECO requests all call
/// it; the caller decides which components to solve and which slot backs
/// each one.
ComponentSolveReport solve_components(const db::Design& design,
                                      const LegalizationModel& model,
                                      const std::vector<ComponentSolveJob>& jobs,
                                      const MmsimLegalizerOptions& options,
                                      const lcp::RecoveryOptions& recovery,
                                      lcp::Vector& x);

}  // namespace mch::legal
