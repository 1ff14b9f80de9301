// Ablation of the MMSIM hyper-parameters the paper fixes without a sweep
// (λ = 1000, β* = θ* = 0.5, Ω = I, γ):
//
//   1. θ* sweep — convergence region of the splitting. Theorem 2's bound
//      (with the exact Schur complement) admits larger θ*, but with the
//      tridiagonal approximation D the practical region ends near ~0.6;
//      the paper's 0.5 sits safely inside. Also prints the Theorem-2
//      estimate from power iteration for reference.
//   2. β* sweep — iterations to converge across the (0, 2) range.
//   3. λ sweep — maximum subcell mismatch of multi-row cells versus λ,
//      justifying λ = 1000 (mismatch far below one site).
//   4. γ sweep — solution invariance (γ only rescales the modulus state).
//   5. Solver cross-check — MMSIM vs the exact Lemke pivoting method on a
//      small instance: identical objective, runtime orders apart.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "gen/generator.h"
#include "io/table.h"
#include "lcp/lemke.h"
#include "lcp/mmsim.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "util/timer.h"

namespace {

struct Instance {
  mch::db::Design design;
  mch::legal::LegalizationModel model;
};

Instance make_instance(std::size_t singles, std::size_t doubles,
                       double density, std::uint64_t seed, double lambda) {
  mch::gen::GeneratorOptions options;
  options.seed = seed;
  options.nets_per_cell = 0.0;
  Instance inst{
      mch::gen::generate_random_design(singles, doubles, density, options),
      {}};
  const mch::legal::RowAssignment rows = mch::legal::assign_rows(inst.design);
  mch::legal::ModelOptions model_options;
  model_options.lambda = lambda;
  inst.model = mch::legal::build_model(inst.design, rows, model_options);
  return inst;
}

}  // namespace

int main() {
  using namespace mch;
  std::printf("Ablation — MMSIM parameters (fft_2-like instance)\n\n");
  const Instance inst = make_instance(3000, 300, 0.6, bench::bench_seed(),
                                      1000.0);
  std::printf("instance: n=%zu variables, m=%zu constraints\n\n",
              inst.model.num_variables(), inst.model.qp.num_constraints());

  {
    lcp::MmsimSolver probe(inst.model.qp, {});
    std::printf("Theorem-2 bound estimate: mu_max=%.3f -> theta < %.3f "
                "(power iteration; exact-Schur assumption)\n\n",
                probe.estimate_mu_max(),
                2.0 * (2.0 - 0.5) / (0.5 * probe.estimate_mu_max()));
  }

  std::printf("1) theta sweep (beta=0.5, tol=1e-6)\n");
  io::Table theta_table({"theta", "iterations", "converged", "seconds"});
  for (const double theta : {0.1, 0.25, 0.5, 0.6, 0.8, 1.0, 1.5}) {
    lcp::MmsimOptions o;
    o.theta = theta;
    o.tolerance = 1e-6;
    o.max_iterations = 30000;
    const lcp::MmsimSolver solver(inst.model.qp, o);
    Timer timer;
    const lcp::MmsimResult r = solver.solve();
    theta_table.row()
        .cell(theta, 2)
        .cell(r.iterations)
        .cell(r.converged ? "yes" : "NO")
        .cell(timer.seconds(), 3);
  }
  std::cout << theta_table.to_text() << "\n";

  std::printf("2) beta sweep (theta=0.5, tol=1e-6)\n");
  io::Table beta_table({"beta", "iterations", "converged", "seconds"});
  for (const double beta : {0.2, 0.5, 0.8, 1.0, 1.2, 1.5}) {
    lcp::MmsimOptions o;
    o.beta = beta;
    o.tolerance = 1e-6;
    o.max_iterations = 30000;
    const lcp::MmsimSolver solver(inst.model.qp, o);
    Timer timer;
    const lcp::MmsimResult r = solver.solve();
    beta_table.row()
        .cell(beta, 2)
        .cell(r.iterations)
        .cell(r.converged ? "yes" : "NO")
        .cell(timer.seconds(), 3);
  }
  std::cout << beta_table.to_text() << "\n";

  std::printf("3) lambda sweep — subcell mismatch of multi-row cells\n");
  io::Table lambda_table({"lambda", "max mismatch (sites)", "iterations"});
  for (const double lambda : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    const Instance li =
        make_instance(1000, 150, 0.7, bench::bench_seed() + 1, lambda);
    lcp::MmsimOptions o;
    o.tolerance = 1e-8;
    o.max_iterations = 200000;
    const lcp::MmsimResult r = lcp::MmsimSolver(li.model.qp, o).solve();
    lambda_table.row()
        .cell(lambda, 0)
        .cell(li.model.max_mismatch(r.x), 6)
        .cell(r.iterations);
  }
  std::cout << lambda_table.to_text() << "\n";

  std::printf("4) gamma invariance (identical x up to tolerance)\n");
  io::Table gamma_table({"gamma", "objective", "iterations"});
  for (const double gamma : {0.5, 1.0, 2.0, 4.0}) {
    lcp::MmsimOptions o;
    o.gamma = gamma;
    o.tolerance = 1e-8;
    o.max_iterations = 100000;
    const lcp::MmsimResult r = lcp::MmsimSolver(inst.model.qp, o).solve();
    gamma_table.row()
        .cell(gamma, 1)
        .cell(inst.model.qp.objective(r.x), 2)
        .cell(r.iterations);
  }
  std::cout << gamma_table.to_text() << "\n";

  std::printf("5) splitting ablation — the paper's Gauss-Seidel M (Eq. 16)\n"
              "   vs a block-Jacobi M (beta=theta=0.5, tol=1e-6)\n");
  io::Table split_table({"splitting", "iterations", "converged"});
  for (const auto splitting :
       {lcp::MmsimSplitting::kGaussSeidel, lcp::MmsimSplitting::kJacobi}) {
    lcp::MmsimOptions o;
    o.tolerance = 1e-6;
    o.max_iterations = 60000;
    o.splitting = splitting;
    const lcp::MmsimResult r = lcp::MmsimSolver(inst.model.qp, o).solve();
    split_table.row()
        .cell(splitting == lcp::MmsimSplitting::kGaussSeidel
                  ? "Gauss-Seidel (paper)"
                  : "Jacobi (ablated)")
        .cell(r.iterations)
        .cell(r.converged ? "yes" : "NO");
  }
  std::cout << split_table.to_text() << "\n";

  std::printf("6) convergence trace — ||dz||_inf decay every 200 iterations "
              "(beta=theta=0.5)\n");
  {
    lcp::MmsimOptions o;
    o.tolerance = 1e-8;
    o.max_iterations = 20000;
    o.trace_stride = 200;
    const lcp::MmsimResult r = lcp::MmsimSolver(inst.model.qp, o).solve();
    std::printf("   iter:delta ");
    for (std::size_t k = 0; k < r.trace.size(); k += 5)
      std::printf(" %zu:%.2e", r.trace[k].first, r.trace[k].second);
    std::printf("\n   (linear-rate decay: the MMSIM is a stationary "
                "iteration)\n\n");
  }

  std::printf("7) MMSIM vs exact Lemke pivoting (small instance)\n");
  {
    const Instance si = make_instance(60, 10, 0.6, bench::bench_seed() + 2,
                                      1000.0);
    lcp::MmsimOptions o;
    o.tolerance = 1e-9;
    o.max_iterations = 200000;
    Timer timer;
    const lcp::MmsimResult mm = lcp::MmsimSolver(si.model.qp, o).solve();
    const double t_mmsim = timer.seconds();
    timer.reset();
    const lcp::LemkeResult lk = lcp::solve_lemke(si.model.qp.to_dense_lcp());
    const double t_lemke = timer.seconds();
    const lcp::Vector lemke_x(
        lk.z.begin(),
        lk.z.begin() +
            static_cast<std::ptrdiff_t>(si.model.num_variables()));
    std::printf("  n+m = %zu: objective mmsim %.6f vs lemke %.6f "
                "(|diff| %.2e)\n",
                si.model.qp.lcp_size(), si.model.qp.objective(mm.x),
                si.model.qp.objective(lemke_x),
                std::abs(si.model.qp.objective(mm.x) -
                         si.model.qp.objective(lemke_x)));
    std::printf("  runtime: mmsim %.4fs (structured O(n) iterations) vs "
                "lemke %.4fs (dense pivoting)\n",
                t_mmsim, t_lemke);
  }
  mch::bench::print_peak_rss();
  return 0;
}
