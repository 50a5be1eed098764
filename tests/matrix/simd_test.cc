// The SIMD wrapper (matrix/simd.h): vector and scalar paths agree on every
// length around the vector width, tails are handled exactly, NaN/inf
// propagate like the scalar loops, pure-data-movement kernels are
// bit-identical across paths, and the ForceScalar/RMA_NO_SIMD escape hatch
// actually pins the scalar path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "matrix/simd.h"
#include "storage/bat_ops.h"
#include "util/random.h"

namespace rma {
namespace {

/// RAII: force the scalar path for one scope, restore detection after.
struct ScopedScalar {
  ScopedScalar() { simd::ForceScalar(true); }
  ~ScopedScalar() { simd::ForceScalar(false); }
};

std::vector<double> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Uniform(-3, 3);
  return v;
}

/// The interesting lengths around the vector width: empty, single element,
/// one under/at/over a full vector, and a couple of vectors plus tail.
std::vector<int64_t> EdgeLengths() {
  const int64_t w = std::max(simd::Width(), 4);  // cover 4 even when scalar
  return {0, 1, w - 1, w, w + 1, 2 * w, 2 * w + 3, 64, 65};
}

// --- element-wise kernels: bit-identical to scalar on every length ----------

TEST(SimdParity, ElementwiseBitIdenticalToScalar) {
  for (int64_t n : EdgeLengths()) {
    const std::vector<double> a = RandomVec(n, 100 + static_cast<uint64_t>(n));
    const std::vector<double> b = RandomVec(n, 200 + static_cast<uint64_t>(n));
    std::vector<double> out_simd(static_cast<size_t>(n), 0.0);
    std::vector<double> out_scalar(static_cast<size_t>(n), 0.0);

    simd::Add(a.data(), b.data(), out_simd.data(), n);
    {
      ScopedScalar scalar;
      simd::Add(a.data(), b.data(), out_scalar.data(), n);
    }
    EXPECT_EQ(out_simd, out_scalar) << "Add n=" << n;

    simd::Sub(a.data(), b.data(), out_simd.data(), n);
    {
      ScopedScalar scalar;
      simd::Sub(a.data(), b.data(), out_scalar.data(), n);
    }
    EXPECT_EQ(out_simd, out_scalar) << "Sub n=" << n;

    simd::Mul(a.data(), b.data(), out_simd.data(), n);
    {
      ScopedScalar scalar;
      simd::Mul(a.data(), b.data(), out_scalar.data(), n);
    }
    EXPECT_EQ(out_simd, out_scalar) << "Mul n=" << n;

    std::vector<double> y_simd = a;
    std::vector<double> y_scalar = a;
    simd::Axpy(1.2345, b.data(), y_simd.data(), n);
    {
      ScopedScalar scalar;
      simd::Axpy(1.2345, b.data(), y_scalar.data(), n);
    }
    EXPECT_EQ(y_simd, y_scalar) << "Axpy n=" << n;

    y_simd = a;
    y_scalar = a;
    simd::Scale(-0.75, y_simd.data(), n);
    {
      ScopedScalar scalar;
      simd::Scale(-0.75, y_scalar.data(), n);
    }
    EXPECT_EQ(y_simd, y_scalar) << "Scale n=" << n;
  }
}

TEST(SimdParity, Axpy4AndAxpyTo4BitIdenticalToScalar) {
  const double alpha[4] = {0.5, -1.25, 2.0, 0.125};
  for (int64_t n : EdgeLengths()) {
    std::vector<std::vector<double>> x;
    for (uint64_t q = 0; q < 4; ++q) {
      x.push_back(RandomVec(n, 300 + 10 * q + static_cast<uint64_t>(n)));
    }
    const std::vector<double> y0 = RandomVec(n, 400 + static_cast<uint64_t>(n));

    std::vector<double> y_simd = y0;
    std::vector<double> y_scalar = y0;
    simd::Axpy4(alpha, x[0].data(), x[1].data(), x[2].data(), x[3].data(),
                y_simd.data(), n);
    {
      ScopedScalar scalar;
      simd::Axpy4(alpha, x[0].data(), x[1].data(), x[2].data(), x[3].data(),
                  y_scalar.data(), n);
    }
    EXPECT_EQ(y_simd, y_scalar) << "Axpy4 n=" << n;

    std::vector<std::vector<double>> ys_simd = x;
    std::vector<std::vector<double>> ys_scalar = x;
    simd::AxpyTo4(alpha, y0.data(), ys_simd[0].data(), ys_simd[1].data(),
                  ys_simd[2].data(), ys_simd[3].data(), n);
    {
      ScopedScalar scalar;
      simd::AxpyTo4(alpha, y0.data(), ys_scalar[0].data(),
                    ys_scalar[1].data(), ys_scalar[2].data(),
                    ys_scalar[3].data(), n);
    }
    for (int q = 0; q < 4; ++q) {
      EXPECT_EQ(ys_simd[q], ys_scalar[q]) << "AxpyTo4 q=" << q << " n=" << n;
    }
  }
}

// --- reductions: near-equal (lane association differs), exact on tails ------

TEST(SimdParity, ReductionsMatchScalarWithinTolerance) {
  for (int64_t n : EdgeLengths()) {
    const std::vector<double> a = RandomVec(n, 500 + static_cast<uint64_t>(n));
    const std::vector<double> b = RandomVec(n, 600 + static_cast<uint64_t>(n));
    double dot_scalar, sum_scalar, sq_scalar;
    {
      ScopedScalar scalar;
      dot_scalar = simd::Dot(a.data(), b.data(), n);
      sum_scalar = simd::Sum(a.data(), n);
      sq_scalar = simd::SumSquares(a.data(), n);
    }
    const double tol = 1e-12 * (1.0 + static_cast<double>(n));
    EXPECT_NEAR(simd::Dot(a.data(), b.data(), n), dot_scalar, tol)
        << "Dot n=" << n;
    EXPECT_NEAR(simd::Sum(a.data(), n), sum_scalar, tol) << "Sum n=" << n;
    EXPECT_NEAR(simd::SumSquares(a.data(), n), sq_scalar, tol)
        << "SumSquares n=" << n;

    // Dot4 equals Dot per column bit for bit within each mode (callers such
    // as QR split columns between the two at thread-count-dependent edges).
    const double* c[4] = {b.data(), a.data(), b.data(), a.data()};
    double d4_simd[4], d4_scalar[4];
    simd::Dot4(a.data(), c[0], c[1], c[2], c[3], n, d4_simd);
    for (int q = 0; q < 4; ++q) {
      EXPECT_EQ(d4_simd[q], simd::Dot(a.data(), c[q], n))
          << "Dot4 q=" << q << " n=" << n;
    }
    {
      ScopedScalar scalar;
      simd::Dot4(a.data(), c[0], c[1], c[2], c[3], n, d4_scalar);
      for (int q = 0; q < 4; ++q) {
        EXPECT_EQ(d4_scalar[q], simd::Dot(a.data(), c[q], n))
            << "scalar Dot4 q=" << q << " n=" << n;
      }
    }
    for (int q = 0; q < 4; ++q) {
      EXPECT_NEAR(d4_simd[q], d4_scalar[q], tol) << "Dot4 q=" << q
                                                 << " n=" << n;
    }
  }
}

TEST(SimdParity, EmptyReductionsAreZero) {
  EXPECT_EQ(simd::Dot(nullptr, nullptr, 0), 0.0);
  EXPECT_EQ(simd::Sum(nullptr, 0), 0.0);
  EXPECT_EQ(simd::SumSquares(nullptr, 0), 0.0);
}

// --- NaN / infinity propagation ---------------------------------------------

TEST(SimdNumerics, NanAndInfPropagateLikeScalar) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t n = 11;  // two AVX2 vectors + a 3-element tail
  for (int64_t poison = 0; poison < n; ++poison) {
    std::vector<double> a = RandomVec(n, 700);
    std::vector<double> b = RandomVec(n, 701);
    a[static_cast<size_t>(poison)] = nan;
    b[static_cast<size_t>((poison + 5) % n)] = inf;

    std::vector<double> out(static_cast<size_t>(n));
    simd::Add(a.data(), b.data(), out.data(), n);
    EXPECT_TRUE(std::isnan(out[static_cast<size_t>(poison)]))
        << "poison=" << poison;
    EXPECT_TRUE(std::isinf(out[static_cast<size_t>((poison + 5) % n)]) ||
                std::isnan(out[static_cast<size_t>((poison + 5) % n)]));

    // A poisoned lane must reach the reduction result no matter which
    // vector/tail position it lands in.
    EXPECT_TRUE(std::isnan(simd::Sum(a.data(), n))) << "poison=" << poison;
    EXPECT_TRUE(std::isnan(simd::Dot(a.data(), b.data(), n)))
        << "poison=" << poison;

    // inf * 0 through Scale stays NaN-generating exactly like scalar.
    std::vector<double> s_simd = b;
    std::vector<double> s_scalar = b;
    simd::Scale(0.0, s_simd.data(), n);
    {
      ScopedScalar scalar;
      simd::Scale(0.0, s_scalar.data(), n);
    }
    for (int64_t i = 0; i < n; ++i) {
      const bool nan_simd = std::isnan(s_simd[static_cast<size_t>(i)]);
      const bool nan_scalar = std::isnan(s_scalar[static_cast<size_t>(i)]);
      EXPECT_EQ(nan_simd, nan_scalar) << "i=" << i;
    }
  }
}

// --- pack/unpack: pure data movement, bit-identical, any stride >= 4 --------

TEST(SimdPack, Pack4RoundTripsThroughUnpack4) {
  for (int64_t n : EdgeLengths()) {
    // Misaligned, non-multiple-of-width strides exercise the partial-vector
    // row writes.
    for (int64_t stride : {int64_t{4}, int64_t{5}, int64_t{7}}) {
      std::vector<std::vector<double>> cols;
      for (uint64_t q = 0; q < 4; ++q) {
        cols.push_back(RandomVec(n, 800 + q + static_cast<uint64_t>(n)));
      }
      std::vector<double> packed(static_cast<size_t>(n * stride), -7.0);
      std::vector<double> packed_scalar = packed;
      simd::Pack4(cols[0].data(), cols[1].data(), cols[2].data(),
                  cols[3].data(), packed.data(), stride, n);
      {
        ScopedScalar scalar;
        simd::Pack4(cols[0].data(), cols[1].data(), cols[2].data(),
                    cols[3].data(), packed_scalar.data(), stride, n);
      }
      // Bit-identical including the untouched slack between rows.
      EXPECT_EQ(packed, packed_scalar) << "stride=" << stride << " n=" << n;

      std::vector<std::vector<double>> back(
          4, std::vector<double>(static_cast<size_t>(n), 0.0));
      simd::Unpack4(packed.data(), stride, n, back[0].data(), back[1].data(),
                    back[2].data(), back[3].data());
      for (int q = 0; q < 4; ++q) {
        EXPECT_EQ(back[q], cols[q]) << "q=" << q << " stride=" << stride
                                    << " n=" << n;
      }
    }
  }
}

// --- strided copies & tiled transposes over bat_ops -------------------------

TEST(SimdBatOps, StridedCopiesMatchScalarOnMisalignedDsts) {
  for (int64_t n : EdgeLengths()) {
    const std::vector<double> src = RandomVec(n, 900 + static_cast<uint64_t>(n));
    for (int64_t stride : {int64_t{1}, int64_t{3}, int64_t{5}}) {
      // +1 offset makes the destination base misaligned relative to the
      // 32-byte vectors even when the allocation happens to be aligned.
      std::vector<double> dst(static_cast<size_t>(n * stride + 1), -1.0);
      std::vector<double> dst_scalar = dst;
      bat_ops::CopyDenseToStrided(src.data(), n, dst.data() + 1, stride);
      {
        ScopedScalar scalar;
        bat_ops::CopyDenseToStrided(src.data(), n, dst_scalar.data() + 1,
                                    stride);
      }
      EXPECT_EQ(dst, dst_scalar) << "stride=" << stride << " n=" << n;
    }
  }
}

TEST(SimdBatOps, PackColumnsRowMajorMatchesPerColumnGather) {
  Rng rng(42);
  for (int64_t n : EdgeLengths()) {
    for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{6}}) {
      std::vector<std::vector<double>> cols;
      std::vector<const double*> ptrs;
      for (uint64_t j = 0; j < static_cast<uint64_t>(k); ++j) {
        cols.push_back(RandomVec(n, 1000 + j + static_cast<uint64_t>(n)));
        ptrs.push_back(cols.back().data());
      }
      // Identity and shuffled permutations.
      std::vector<int64_t> perm(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
      for (int64_t i = n - 1; i > 0; --i) {
        std::swap(perm[static_cast<size_t>(i)],
                  perm[static_cast<size_t>(rng.UniformInt(0, i))]);
      }
      const int64_t* perm_choices[] = {nullptr, perm.data()};
      for (const int64_t* p : perm_choices) {
        std::vector<double> packed(static_cast<size_t>(n * k), 0.0);
        bat_ops::PackColumnsRowMajor(ptrs.data(), k, p, n, packed.data());
        for (int64_t i = 0; i < n; ++i) {
          const int64_t row = p == nullptr ? i : p[i];
          for (int64_t j = 0; j < k; ++j) {
            ASSERT_EQ(packed[static_cast<size_t>(i * k + j)],
                      cols[static_cast<size_t>(j)][static_cast<size_t>(row)])
                << "n=" << n << " k=" << k << " i=" << i << " j=" << j
                << " perm=" << (p != nullptr);
          }
        }
        if (p == nullptr) {
          // Unpack inverts the identity-permutation pack exactly.
          std::vector<std::vector<double>> back(
              static_cast<size_t>(k),
              std::vector<double>(static_cast<size_t>(n), 0.0));
          std::vector<double*> back_ptrs;
          for (auto& c : back) back_ptrs.push_back(c.data());
          bat_ops::UnpackRowMajorToColumns(packed.data(), n, k,
                                           back_ptrs.data());
          for (size_t j = 0; j < static_cast<size_t>(k); ++j) {
            EXPECT_EQ(back[j], cols[j]) << "n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

// --- the escape hatch --------------------------------------------------------

TEST(SimdConfig, ForceScalarPinsTheScalarPath) {
  {
    ScopedScalar scalar;
    EXPECT_EQ(simd::Width(), 1);
    EXPECT_FALSE(simd::Enabled());
    EXPECT_STREQ(simd::IsaName(), "scalar");
    EXPECT_EQ(simd::Describe(), "scalar");
  }
  // Restored: width is whatever detection says (>= 1 always).
  EXPECT_GE(simd::Width(), 1);
  if (simd::Width() > 1) {
    EXPECT_TRUE(simd::Enabled());
    EXPECT_NE(simd::Describe(), "scalar");
  }
}

}  // namespace
}  // namespace rma
