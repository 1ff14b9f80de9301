// parallel_for's fixed chunk layout, dot's fixed summation order, and
// agreement of the linalg vector kernels with straight serial loops at
// every thread count.
#include "runtime/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/vector_ops.h"
#include "runtime/runtime.h"

namespace mch::runtime {
namespace {

/// Deterministic pseudo-random doubles in [-1, 1) (no <random> to keep the
/// sequence pinned across standard libraries).
linalg::Vector random_vector(std::size_t n, std::uint64_t seed) {
  linalg::Vector v(n);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<double>(static_cast<std::int64_t>(state >> 11)) /
           static_cast<double>(1LL << 52);
  }
  return v;
}

class ParallelForTest : public ::testing::Test {
 protected:
  void TearDown() override { Runtime::configure(1); }
};

// The chunk layout is a function of (n, grain) alone: chunk c covers
// [begin + c·grain, min(begin + (c+1)·grain, end)) at every thread count.
TEST_F(ParallelForTest, ChunkLayoutIsFixed) {
  constexpr std::size_t kBegin = 5, kEnd = 1005, kGrain = 32;
  const std::size_t chunks = chunk_count(kEnd - kBegin, kGrain);
  for (const unsigned threads : {1u, 4u}) {
    Runtime::configure(threads);
    std::vector<std::size_t> lows(chunks, 0), highs(chunks, 0);
    parallel_for(kBegin, kEnd, kGrain, [&](std::size_t lo, std::size_t hi) {
      const std::size_t c = (lo - kBegin) / kGrain;
      lows[c] = lo;
      highs[c] = hi;
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(lows[c], kBegin + c * kGrain) << "threads=" << threads;
      EXPECT_EQ(highs[c], std::min(kBegin + (c + 1) * kGrain, kEnd))
          << "threads=" << threads;
    }
  }
}

TEST_F(ParallelForTest, EmptyRangesAreNoOps) {
  Runtime::configure(4);
  int calls = 0;
  parallel_for(std::size_t{5}, std::size_t{5}, 8,
               [&](std::size_t, std::size_t) { ++calls; });
  parallel_for(std::size_t{9}, std::size_t{5}, 8,
               [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(linalg::dot({}, {}), 0.0);
  EXPECT_EQ(linalg::norm2({}), 0.0);
  EXPECT_EQ(linalg::norm_inf({}), 0.0);
}

class VectorOpsParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { Runtime::configure(1); }
};

TEST_F(VectorOpsParallelTest, DotBitwiseIdenticalAcrossThreadCounts) {
  const linalg::Vector a = random_vector(70001, 3);
  const linalg::Vector b = random_vector(70001, 11);
  Runtime::configure(1);
  const double serial = linalg::dot(a, b);
  for (const unsigned threads : {2u, 4u, 8u}) {
    Runtime::configure(threads);
    ASSERT_EQ(linalg::dot(a, b), serial) << "threads=" << threads;
  }
  double straight = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) straight += a[i] * b[i];
  EXPECT_NEAR(serial, straight, 1e-9 * a.size());
}

// dot sums fixed 4096-element blocks and folds the block sums left to
// right; the committed results (θ re-probes by power iteration over whole
// designs among them) depend on exactly this rounding.
TEST_F(VectorOpsParallelTest, DotSumsFixedBlocksLeftToRight) {
  const linalg::Vector a = random_vector(3 * 4096 + 17, 21);
  const linalg::Vector b = random_vector(3 * 4096 + 17, 22);
  double blocked = 0.0;
  for (std::size_t lo = 0; lo < a.size(); lo += 4096) {
    double sum = 0.0;
    for (std::size_t i = lo; i < std::min(lo + 4096, a.size()); ++i)
      sum += a[i] * b[i];
    blocked += sum;
  }
  EXPECT_EQ(linalg::dot(a, b), blocked);  // bitwise
  EXPECT_EQ(linalg::norm2(a), std::sqrt(linalg::dot(a, a)));
}

TEST_F(VectorOpsParallelTest, NormsBitwiseIdenticalAcrossThreadCounts) {
  const linalg::Vector a = random_vector(70001, 5);
  const linalg::Vector b = random_vector(70001, 6);
  Runtime::configure(1);
  const double n2 = linalg::norm2(a);
  const double ninf = linalg::norm_inf(a);
  const double dinf = linalg::diff_norm_inf(a, b);
  for (const unsigned threads : {2u, 4u, 8u}) {
    Runtime::configure(threads);
    ASSERT_EQ(linalg::norm2(a), n2) << "threads=" << threads;
    ASSERT_EQ(linalg::norm_inf(a), ninf) << "threads=" << threads;
    ASSERT_EQ(linalg::diff_norm_inf(a, b), dinf) << "threads=" << threads;
  }
  double max_abs = 0.0;
  for (const double x : a) max_abs = std::max(max_abs, std::abs(x));
  EXPECT_EQ(ninf, max_abs);
}

TEST_F(VectorOpsParallelTest, ElementwiseKernelsMatchSerial) {
  const linalg::Vector x = random_vector(50000, 13);
  linalg::Vector y_serial = random_vector(50000, 17);
  linalg::Vector y_parallel = y_serial;

  Runtime::configure(1);
  linalg::axpy(2.5, x, y_serial);
  linalg::scale(0.75, y_serial);
  Runtime::configure(4);
  linalg::axpy(2.5, x, y_parallel);
  linalg::scale(0.75, y_parallel);
  ASSERT_EQ(y_serial, y_parallel);  // elementwise, so trivially bitwise

  linalg::Vector abs_out, pos_out;
  linalg::abs_into(x, abs_out);
  linalg::positive_part(x, pos_out);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(abs_out[i], std::abs(x[i]));
    ASSERT_EQ(pos_out[i], std::max(x[i], 0.0));
  }
}

}  // namespace
}  // namespace mch::runtime
