// Tests of MMSIM's exact active-set finisher (MmsimSolver::solve_finished,
// the production component path behind lcp::make_lcp_solver): accepted
// results are the exact LCP solution, a rejected attempt leaves the
// iteration untouched, the Algorithm 1 entry points never run it, and an
// ECO stream served through it stays legal and thread-count independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gen/generator.h"
#include "lcp/lemke.h"
#include "lcp/mmsim.h"
#include "lcp/solver.h"
#include "legal/flow.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "service/session.h"
#include "util/rng.h"

namespace mch::lcp {
namespace {

using linalg::CooMatrix;
using linalg::CsrMatrix;

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double norm_inf(const Vector& v) {
  double best = 0.0;
  for (const double x : v) best = std::max(best, std::abs(x));
  return best;
}

std::uint64_t finisher_count(const char* name) {
  return obs::counter(name).value();
}

/// One row of `cells` cells whose targets pile up in three clumps, the
/// first pushed against x = 0: the optimum has long runs of abutting
/// cells, pinned cells and free cells.
StructuredQp clumped_chain_qp(std::size_t cells) {
  StructuredQp qp;
  Rng rng(11);
  for (std::size_t i = 0; i < cells; ++i) {
    qp.K.add_scalar_block(1.0 + 0.5 * rng.uniform());
    const double clump = static_cast<double>(i / (cells / 3)) * 40.0 - 6.0;
    qp.p.push_back(-(clump + rng.uniform(0.0, 3.0)));
  }
  CooMatrix coo(cells - 1, cells);
  for (std::size_t r = 0; r + 1 < cells; ++r) {
    coo.add(r, r, -1.0);
    coo.add(r, r + 1, 1.0);
    qp.b.push_back(1.0 + rng.uniform(0.0, 2.0));
  }
  qp.B = CsrMatrix::from_coo(coo);
  return qp;
}

db::Design random_design(std::size_t singles, std::size_t doubles,
                         double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;
  return gen::generate_random_design(singles, doubles, density, opts);
}

legal::LegalizationModel model_of(db::Design design) {
  return legal::build_model(design, legal::assign_rows(design));
}

/// A design whose GP is a legal placement with a few cells moved off it:
/// the degenerate LCPs an ECO session solves (most rows tight with a zero
/// multiplier, a few clumps to resolve).
db::Design committed_gp_design(std::size_t singles, std::size_t doubles,
                               std::uint64_t seed) {
  db::Design design = random_design(singles, doubles, 0.7, seed);
  EXPECT_TRUE(legal::legalize(design).legal);
  design.commit_positions_as_gp();
  Rng rng(seed);
  for (db::Cell& cell : design.cells())
    if (!cell.fixed && rng.uniform() < 0.03)
      cell.gp_x += rng.normal(0.0, 4.0 * design.chip().site_width);
  return design;
}

MmsimResult finish(const StructuredQp& qp, const MmsimOptions& options) {
  const MmsimSolver solver(qp, options);
  MmsimSolver::State state;
  return solver.solve_finished(state);
}

void expect_certified(const StructuredQp& qp, const MmsimResult& result,
                      const MmsimOptions& options) {
  const MmsimSolver solver(qp, options);
  EXPECT_TRUE(MmsimSolver::residual_ok(solver.residual_partials(result.z),
                                       options.residual_tolerance));
}

void expect_matches_lemke(const StructuredQp& qp) {
  // Tight stop so MMSIM alone runs long enough for the pattern to settle
  // and the finisher to take over.
  MmsimOptions options;
  options.tolerance = 1e-12;
  options.residual_tolerance = 1e-10;
  const MmsimResult finished = finish(qp, options);
  ASSERT_TRUE(finished.converged);
  ASSERT_TRUE(finished.finished) << "finisher never accepted in "
                                 << finished.iterations << " iterations";
  expect_certified(qp, finished, options);

  const LemkeResult exact = solve_lemke(qp.to_dense_lcp(), 20000);
  ASSERT_EQ(exact.status, LemkeStatus::kSolved);
  const Vector x(exact.z.begin(),
                 exact.z.begin() + static_cast<std::ptrdiff_t>(qp.p.size()));
  const double bound = 1e-6 * (1.0 + norm_inf(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(finished.x[i], x[i], bound) << "x[" << i << "]";
}

TEST(MmsimFinisherTest, ChainMatchesLemke) {
  expect_matches_lemke(clumped_chain_qp(60));
}

TEST(MmsimFinisherTest, MultiRowMatchesLemke) {
  const legal::LegalizationModel model =
      model_of(random_design(36, 8, 0.85, 4));
  ASSERT_FALSE(model.qp.K.general_block_indices().empty());
  expect_matches_lemke(model.qp);
}

/// The finisher's x against MMSIM run to its own stop, both at the default
/// tolerances, on the designs the production path sees.
void expect_matches_converged_mmsim(const db::Design& design) {
  const legal::LegalizationModel model = model_of(design);
  const MmsimOptions options;
  const MmsimResult finished = finish(model.qp, options);
  ASSERT_TRUE(finished.converged);
  ASSERT_TRUE(finished.finished) << "finisher never accepted in "
                                 << finished.iterations << " iterations";
  expect_certified(model.qp, finished, options);

  const MmsimResult reference = MmsimSolver(model.qp, options).solve();
  ASSERT_TRUE(reference.converged);
  EXPECT_LT(finished.iterations, reference.iterations);
  ASSERT_EQ(finished.x.size(), reference.x.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < finished.x.size(); ++i)
    worst = std::max(worst, std::abs(finished.x[i] - reference.x[i]));
  EXPECT_LE(worst, 1e-5);
}

TEST(MmsimFinisherTest, MatchesConvergedMmsimOnEveryFamily) {
  for (const gen::ScaleVariant variant :
       {gen::ScaleVariant::kBaseline, gen::ScaleVariant::kObstacleHeavy,
        gen::ScaleVariant::kHighUtilization}) {
    SCOPED_TRACE(gen::to_string(variant));
    expect_matches_converged_mmsim(gen::generate_scale_design(variant, 600));
  }
}

TEST(MmsimFinisherTest, DegenerateDesignMatchesLemke) {
  // MMSIM alone does not converge on this stiff, fully coupled system within
  // ten times its default budget (the recovery ladder exists for it), so the
  // exact pivoting solution is the reference. The finisher certifies it
  // within the first attempt.
  const legal::LegalizationModel model =
      model_of(gen::generate_degenerate_design(
          gen::DegenerateMode::kNearSingularCoupling, 24, 3));
  const MmsimOptions options;
  const MmsimResult finished = finish(model.qp, options);
  ASSERT_TRUE(finished.finished);
  expect_certified(model.qp, finished, options);
  const LemkeResult exact = solve_lemke(model.qp.to_dense_lcp(), 20000);
  ASSERT_EQ(exact.status, LemkeStatus::kSolved);
  for (std::size_t i = 0; i < finished.x.size(); ++i)
    EXPECT_NEAR(finished.x[i], exact.z[i], 1e-5) << "x[" << i << "]";
}

TEST(MmsimFinisherTest, MatchesConvergedMmsimOnCommittedGp) {
  expect_matches_converged_mmsim(committed_gp_design(900, 100, 6));
}

TEST(MmsimFinisherTest, RejectedAttemptsLeaveIterationUntouched) {
  // A zero residual tolerance rejects every certificate, MMSIM's own stop
  // included: both runs iterate to the budget, one of them attempting the
  // finisher on the way.
  const legal::LegalizationModel model =
      model_of(random_design(500, 50, 0.75, 8));
  MmsimOptions options;
  options.residual_tolerance = 0.0;
  options.max_iterations = 600;
  const MmsimSolver solver(model.qp, options);

  const std::uint64_t attempts = finisher_count("mmsim.finisher.attempts");
  const std::uint64_t accepted = finisher_count("mmsim.finisher.accepted");
  MmsimSolver::State finished_state;
  const MmsimResult finished = solver.solve_finished(finished_state);
  ASSERT_GT(finisher_count("mmsim.finisher.attempts"), attempts);
  ASSERT_EQ(finisher_count("mmsim.finisher.accepted"), accepted);

  const MmsimResult plain = solver.solve();
  EXPECT_FALSE(finished.finished);
  EXPECT_EQ(finished.converged, plain.converged);
  EXPECT_EQ(finished.iterations, plain.iterations);
  EXPECT_TRUE(bitwise_equal(finished.z, plain.z));
  EXPECT_TRUE(bitwise_equal(finished.s, plain.s));
}

TEST(MmsimFinisherTest, AlgorithmOneIsAPlainStepLoop) {
  // solve() is the paper's Algorithm 1 with no finisher: the same iterate
  // as stepping by hand under the MmsimOptions stopping rule, even on a
  // system long enough for the finisher to have fired.
  const legal::LegalizationModel model =
      model_of(random_design(500, 50, 0.75, 9));
  const MmsimOptions options;
  const MmsimSolver solver(model.qp, options);
  const std::uint64_t attempts = finisher_count("mmsim.finisher.attempts");
  const MmsimResult result = solver.solve();
  EXPECT_EQ(finisher_count("mmsim.finisher.attempts"), attempts);
  ASSERT_TRUE(result.converged);
  ASSERT_GT(result.iterations, 64u);  // two finisher snapshot periods
  EXPECT_FALSE(result.finished);

  MmsimSolver::State state = solver.make_state();
  for (std::size_t k = 0; state.iterations < options.max_iterations; ++k) {
    const double delta = solver.step(state);
    if (k > 0 && delta < options.tolerance &&
        MmsimSolver::residual_ok(solver.residual_partials(state.z),
                                 options.residual_tolerance))
      break;
  }
  EXPECT_EQ(state.iterations, result.iterations);
  EXPECT_TRUE(bitwise_equal(state.z, result.z));
}

TEST(MmsimFinisherTest, RecoveryRungsFinishToo) {
  // The escalated retry runs through the same adapter, so it finishes.
  const StructuredQp qp = clumped_chain_qp(60);
  LcpSolverConfig config;
  config.mmsim.tolerance = 1e-12;
  config.mmsim.residual_tolerance = 1e-10;
  RecoveryOptions recovery;
  recovery.forced_failures = 1;
  const RecoveredSolve solved =
      solve_with_recovery(LcpSolverKind::kMmsim, qp, config, recovery);
  ASSERT_EQ(solved.rung, RecoveryRung::kEscalated);
  EXPECT_TRUE(solved.result.converged);
  EXPECT_TRUE(solved.result.finished);
}

/// Serves a fixed ECO stream on a 5k-cell committed-GP session and returns
/// the final positions; every request must come back legal.
Vector serve_eco_stream() {
  gen::GeneratorOptions opts;
  opts.seed = 31;
  service::LegalizationSession session(
      gen::generate_random_design(4500, 500, 0.7, opts));
  EXPECT_TRUE(session.full_legalize().legal);
  session.commit_legal_as_gp();
  EXPECT_TRUE(session.full_legalize().legal);

  Rng rng(32);
  for (int request = 0; request < 6; ++request) {
    const db::Design& design = session.design();
    std::vector<service::EcoOp> ops;
    while (ops.size() < 8) {
      const auto id = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(design.num_cells()) - 1));
      const db::Cell& cell = design.cells()[id];
      if (cell.fixed || cell.erased) continue;
      ops.push_back(service::EcoOp::move(
          id, cell.gp_x + rng.normal(0.0, 4.0 * design.chip().site_width),
          cell.gp_y + rng.normal(0.0, 0.6 * design.chip().row_height)));
    }
    const service::SessionResult served = session.eco(std::move(ops));
    EXPECT_TRUE(served.legal) << "request " << request << ": "
                              << served.legality_summary;
  }
  Vector positions;
  for (const db::Cell& cell : session.design().cells()) {
    positions.push_back(cell.x);
    positions.push_back(cell.y);
  }
  return positions;
}

TEST(MmsimFinisherTest, EcoStreamLegalAndThreadCountIndependent) {
  const unsigned ambient = runtime::Runtime::instance().threads();
  const std::uint64_t accepted = finisher_count("mmsim.finisher.accepted");
  runtime::Runtime::configure(1);
  const Vector serial = serve_eco_stream();
  EXPECT_GT(finisher_count("mmsim.finisher.accepted"), accepted);
  runtime::Runtime::configure(4);
  const Vector parallel = serve_eco_stream();
  runtime::Runtime::configure(ambient);
  EXPECT_TRUE(bitwise_equal(serial, parallel));
}

}  // namespace
}  // namespace mch::lcp
