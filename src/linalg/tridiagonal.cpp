#include "linalg/tridiagonal.h"

#include <cmath>

#include "util/check.h"

namespace mch::linalg {

Tridiagonal Tridiagonal::scaled_plus_identity(double alpha,
                                              double beta) const {
  Tridiagonal out(size());
  for (std::size_t i = 0; i < size(); ++i)
    out.diag_[i] = alpha * diag_[i] + beta;
  for (std::size_t i = 0; i + 1 < size(); ++i) {
    out.lower_[i] = alpha * lower_[i];
    out.upper_[i] = alpha * upper_[i];
  }
  return out;
}

void Tridiagonal::multiply(const Vector& x, Vector& y) const {
  const std::size_t n = size();
  MCH_CHECK(x.size() == n);
  y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = diag_[i] * x[i];
    if (i > 0) sum += lower_[i - 1] * x[i - 1];
    if (i + 1 < n) sum += upper_[i] * x[i + 1];
    y[i] = sum;
  }
}

// The Thomas recurrences are inherently sequential: each pivot depends on
// the previous one.
bool Tridiagonal::solve(const Vector& rhs, Vector& x) const {
  Vector c_prime, d_prime;
  return solve_with(rhs, x, c_prime, d_prime);
}

bool Tridiagonal::solve_with(const Vector& rhs, Vector& x, Vector& scratch_c,
                             Vector& scratch_d) const {
  const std::size_t n = size();
  MCH_CHECK(rhs.size() == n);
  x.assign(n, 0.0);
  if (n == 0) return true;

  // Thomas forward sweep on scratch copies of the super-diagonal and rhs.
  Vector& c_prime = scratch_c;
  Vector& d_prime = scratch_d;
  c_prime.assign(n > 1 ? n - 1 : 0, 0.0);
  d_prime.assign(n, 0.0);
  double pivot = diag_[0];
  if (std::abs(pivot) < 1e-300) return false;
  if (n > 1) c_prime[0] = upper_[0] / pivot;
  d_prime[0] = rhs[0] / pivot;
  for (std::size_t i = 1; i < n; ++i) {
    pivot = diag_[i] - lower_[i - 1] * c_prime[i - 1];
    if (std::abs(pivot) < 1e-300) return false;
    if (i + 1 < n) c_prime[i] = upper_[i] / pivot;
    d_prime[i] = (rhs[i] - lower_[i - 1] * d_prime[i - 1]) / pivot;
  }

  // Back substitution.
  x[n - 1] = d_prime[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) x[i] = d_prime[i] - c_prime[i] * x[i + 1];
  return true;
}

bool TridiagonalFactorization::factor(const Tridiagonal& t) {
  const std::size_t n = t.size();
  valid_ = false;
  c_prime_.assign(n > 1 ? n - 1 : 0, 0.0);
  inv_pivot_.assign(n, 0.0);
  g_.assign(n, 0.0);
  if (n == 0) {
    valid_ = true;
    return true;
  }
  // Same pivot recurrence as Tridiagonal::solve_with; only the per-solve
  // coefficients 1/pivot and lower/pivot are stored in its place.
  double pivot = t.diag(0);
  if (std::abs(pivot) < 1e-300) return false;
  inv_pivot_[0] = 1.0 / pivot;
  if (n > 1) c_prime_[0] = t.upper(0) / pivot;
  for (std::size_t i = 1; i < n; ++i) {
    pivot = t.diag(i) - t.lower(i - 1) * c_prime_[i - 1];
    if (std::abs(pivot) < 1e-300) return false;
    inv_pivot_[i] = 1.0 / pivot;
    g_[i] = t.lower(i - 1) / pivot;
    if (i + 1 < n) c_prime_[i] = t.upper(i) / pivot;
  }
  valid_ = true;
  return true;
}

void TridiagonalFactorization::solve(const Vector& rhs, Vector& x,
                                     Vector& scratch) const {
  const std::size_t n = inv_pivot_.size();
  MCH_CHECK(valid_ && rhs.size() == n);
  x.resize(n);
  if (n == 0) return;

  Vector& d_prime = scratch;
  d_prime.resize(n);
  d_prime[0] = rhs[0] * inv_pivot_[0];
  for (std::size_t i = 1; i < n; ++i)
    d_prime[i] = rhs[i] * inv_pivot_[i] - g_[i] * d_prime[i - 1];

  x[n - 1] = d_prime[n - 1];
  for (std::size_t i = n - 1; i-- > 0;)
    x[i] = d_prime[i] - c_prime_[i] * x[i + 1];
}

}  // namespace mch::linalg
