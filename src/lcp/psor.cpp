#include "lcp/psor.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mch::lcp {

PsorResult solve_psor(const DenseLcp& problem, const PsorOptions& options) {
  const std::size_t n = problem.size();
  MCH_CHECK(options.omega > 0.0 && options.omega < 2.0);
  for (std::size_t i = 0; i < n; ++i)
    MCH_CHECK_MSG(problem.A(i, i) > 0.0, "PSOR needs a positive diagonal");

  PsorResult result;
  Vector& z = result.z;
  z.assign(n, 0.0);
  for (std::size_t k = 0; k < options.max_iterations; ++k) {
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double row = problem.q[i];
      for (std::size_t j = 0; j < n; ++j) row += problem.A(i, j) * z[j];
      const double updated =
          std::max(0.0, z[i] - options.omega * row / problem.A(i, i));
      delta = std::max(delta, std::abs(updated - z[i]));
      z[i] = updated;
    }
    result.iterations = k + 1;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace mch::lcp
