#include "linalg/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mch::linalg {

namespace {
/// dot() sums each block of this many elements on its own and folds the
/// block sums left to right. The summation order is a function of the
/// length alone; it is the order every committed result was computed in.
constexpr std::size_t kDotBlock = 4096;
}  // namespace

double dot(const Vector& a, const Vector& b) {
  MCH_CHECK(a.size() == b.size());
  double total = 0.0;
  for (std::size_t lo = 0; lo < a.size(); lo += kDotBlock) {
    const std::size_t hi = std::min(lo + kDotBlock, a.size());
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += a[i] * b[i];
    total += sum;
  }
  return total;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  MCH_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

double norm_inf(const Vector& a) {
  double best = 0.0;
  for (const double v : a) best = std::max(best, std::abs(v));
  return best;
}

double diff_norm_inf(const Vector& a, const Vector& b) {
  MCH_CHECK(a.size() == b.size());
  double best = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    best = std::max(best, std::abs(a[i] - b[i]));
  return best;
}

void scale(double alpha, Vector& a) {
  for (double& v : a) v *= alpha;
}

void abs_into(const Vector& a, Vector& out) {
  out.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::abs(a[i]);
}

void positive_part(const Vector& a, Vector& out) {
  out.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::max(a[i], 0.0);
}

}  // namespace mch::linalg
