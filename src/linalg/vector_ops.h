// Dense vector kernels.
//
// Vectors are std::vector<double> over a 64-byte-aligned allocator
// (util/aligned.h): the problem sizes here (millions of entries) never
// justify an expression-template layer, plain loops let the compiler
// vectorize, and cache-line alignment lets the explicit SIMD kernels
// (linalg/simd_kernels.h) issue full-width loads from array bases. All
// functions check size agreement.
//
// Every kernel is a serial loop on the calling thread: parallelism lives
// one level up, across independent components and designs (runtime/).
#pragma once

#include <cstddef>
#include <vector>

#include "util/aligned.h"

namespace mch::linalg {

/// 64-byte-aligned std::vector; linalg arrays that feed SIMD kernels
/// (solver workspaces, CSR values, gather tables) use this layout.
template <typename T>
using AlignedVector = std::vector<T, util::AlignedAllocator<T, 64>>;

using Vector = AlignedVector<double>;

/// Returns the dot product aᵀb. Requires a.size() == b.size().
double dot(const Vector& a, const Vector& b);

/// y += alpha * x. Requires x.size() == y.size().
void axpy(double alpha, const Vector& x, Vector& y);

/// Euclidean norm ‖a‖₂.
double norm2(const Vector& a);

/// Max norm ‖a‖∞ (0 for an empty vector).
double norm_inf(const Vector& a);

/// ‖a − b‖∞. Requires a.size() == b.size().
double diff_norm_inf(const Vector& a, const Vector& b);

/// a *= alpha.
void scale(double alpha, Vector& a);

/// out[i] = |a[i]|.
void abs_into(const Vector& a, Vector& out);

/// out[i] = max(a[i], 0).
void positive_part(const Vector& a, Vector& out);

}  // namespace mch::linalg
