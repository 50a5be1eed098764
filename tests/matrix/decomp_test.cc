// Decomposition kernels: golden values plus reconstruction properties over
// randomized inputs (TEST_P sweeps).
#include <gtest/gtest.h>

#include <cmath>

#include "matrix/blas.h"
#include "matrix/cholesky.h"
#include "matrix/eigen.h"
#include "matrix/lu.h"
#include "matrix/qr.h"
#include "matrix/svd.h"
#include "test_util.h"
#include "util/random.h"

namespace rma {
namespace {

DenseMatrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                         double lo = -5, double hi = 5) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(lo, hi);
  }
  return m;
}

DenseMatrix RandomSpd(int64_t n, uint64_t seed) {
  const DenseMatrix a = RandomMatrix(n, n, seed);
  DenseMatrix spd = blas::CrossProd(a, a).ValueOrDie();  // AᵀA is PSD
  for (int64_t i = 0; i < n; ++i) spd(i, i) += n;        // make it PD
  return spd;
}

// --- LU / determinant / inverse ---------------------------------------------

TEST(Lu, DeterminantKnown) {
  DenseMatrix m(2, 2);
  m(0, 0) = 6;
  m(0, 1) = 7;
  m(1, 0) = 8;
  m(1, 1) = 5;
  EXPECT_NEAR(*Determinant(m), -26.0, 1e-12);
}

TEST(Lu, DeterminantIdentity) {
  EXPECT_NEAR(*Determinant(DenseMatrix::Identity(5)), 1.0, 1e-12);
}

TEST(Lu, DeterminantSingularIsZero) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 2;
  m(1, 1) = 4;
  EXPECT_NEAR(*Determinant(m), 0.0, 1e-12);
}

TEST(Lu, DeterminantOfProductIsProduct) {
  const DenseMatrix a = RandomMatrix(6, 6, 1);
  const DenseMatrix b = RandomMatrix(6, 6, 2);
  const DenseMatrix ab = blas::MatMul(a, b).ValueOrDie();
  EXPECT_NEAR(*Determinant(ab), *Determinant(a) * *Determinant(b), 1e-4);
}

TEST(Lu, DeterminantRejectsNonSquare) {
  EXPECT_STATUS(kInvalidArgument, Determinant(DenseMatrix(2, 3)));
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    const DenseMatrix a = RandomMatrix(8, 8, seed);
    const DenseMatrix inv = Inverse(a).ValueOrDie();
    const DenseMatrix id = blas::MatMul(a, inv).ValueOrDie();
    EXPECT_TRUE(id.AllClose(DenseMatrix::Identity(8), 1e-9)) << "seed " << seed;
  }
}

TEST(Lu, InverseSingularFails) {
  DenseMatrix m(2, 2, 0.0);
  m(0, 0) = 1;
  EXPECT_STATUS(kNumericError, Inverse(m));
}

TEST(Lu, SolveSquareMatchesDirect) {
  const DenseMatrix a = RandomMatrix(7, 7, 6);
  const DenseMatrix x_true = RandomMatrix(7, 2, 7);
  const DenseMatrix b = blas::MatMul(a, x_true).ValueOrDie();
  const DenseMatrix x = SolveSquare(a, b).ValueOrDie();
  EXPECT_TRUE(x.AllClose(x_true, 1e-8));
}

TEST(Lu, LeastSquaresRecoversPlantedModel) {
  Rng rng(8);
  const int64_t n = 200;
  DenseMatrix a(n, 3);
  DenseMatrix y(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = rng.Uniform(-3, 3);
    a(i, 2) = rng.Uniform(-3, 3);
    y(i, 0) = 2.0 + 0.5 * a(i, 1) - 1.5 * a(i, 2);
  }
  const DenseMatrix beta = SolveLeastSquares(a, y).ValueOrDie();
  EXPECT_NEAR(beta(0, 0), 2.0, 1e-9);
  EXPECT_NEAR(beta(1, 0), 0.5, 1e-9);
  EXPECT_NEAR(beta(2, 0), -1.5, 1e-9);
}

TEST(Lu, LeastSquaresUnderdeterminedRejected) {
  EXPECT_STATUS(kInvalidArgument,
                SolveLeastSquares(DenseMatrix(2, 3), DenseMatrix(2, 1)));
}

// --- QR -----------------------------------------------------------------------

struct QrCase {
  int64_t rows;
  int64_t cols;
  uint64_t seed;
};

class QrProperty : public ::testing::TestWithParam<QrCase> {};

TEST_P(QrProperty, HouseholderReconstructsAndIsOrthonormal) {
  const QrCase c = GetParam();
  const DenseMatrix a = RandomMatrix(c.rows, c.cols, c.seed);
  DenseMatrix q;
  DenseMatrix r;
  ASSERT_OK(HouseholderQr(a, &q, &r));
  // QᵀQ = I.
  const DenseMatrix qtq = blas::CrossProd(q, q).ValueOrDie();
  EXPECT_TRUE(qtq.AllClose(DenseMatrix::Identity(c.cols), 1e-9));
  // QR = A.
  const DenseMatrix qr = blas::MatMul(q, r).ValueOrDie();
  EXPECT_TRUE(qr.AllClose(a, 1e-9));
  // R upper triangular with non-negative diagonal (sign convention).
  for (int64_t i = 0; i < r.rows(); ++i) {
    EXPECT_GE(r(i, i), 0.0);
    for (int64_t j = 0; j < i; ++j) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST_P(QrProperty, GramSchmidtAgreesWithHouseholder) {
  const QrCase c = GetParam();
  const DenseMatrix a = RandomMatrix(c.rows, c.cols, c.seed);
  DenseMatrix q1;
  DenseMatrix r1;
  DenseMatrix q2;
  DenseMatrix r2;
  ASSERT_OK(HouseholderQr(a, &q1, &r1));
  ASSERT_OK(GramSchmidtQr(a, &q2, &r2));
  // Both are sign-normalized, so the factors agree (QR is unique).
  EXPECT_TRUE(q1.AllClose(q2, 1e-8));
  EXPECT_TRUE(r1.AllClose(r2, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrProperty,
    ::testing::Values(QrCase{4, 4, 11}, QrCase{10, 3, 12}, QrCase{25, 7, 13},
                      QrCase{50, 10, 14}, QrCase{100, 1, 15},
                      QrCase{8, 8, 16}));

TEST(Qr, ParallelMatchesSingleThread) {
  // Large enough that the reflector updates cross the parallel threshold;
  // per-column arithmetic is identical on every thread count, so the
  // factors agree to the last bit. Thread counts are explicit (not 0 =
  // hardware concurrency) so a single-core runner moves the chunk edges too.
  const DenseMatrix a = RandomMatrix(4000, 70, 21);
  DenseMatrix q1;
  DenseMatrix r1;
  ASSERT_OK(HouseholderQr(a, &q1, &r1, /*threads=*/1));
  for (int threads : {2, 3, 4}) {
    DenseMatrix q2;
    DenseMatrix r2;
    ASSERT_OK(HouseholderQr(a, &q2, &r2, threads));
    EXPECT_TRUE(q1.AllClose(q2, 0.0)) << "threads=" << threads;
    EXPECT_TRUE(r1.AllClose(r2, 0.0)) << "threads=" << threads;
  }
}

TEST(Qr, RowPermutationOnlyPermutesQ) {
  // The property behind the qqr sort-avoidance optimization.
  const DenseMatrix a = RandomMatrix(12, 4, 17);
  DenseMatrix pa(12, 4);
  std::vector<int64_t> perm = {5, 2, 9, 0, 11, 3, 7, 1, 10, 4, 8, 6};
  for (int64_t i = 0; i < 12; ++i) {
    for (int64_t j = 0; j < 4; ++j) pa(i, j) = a(perm[i], j);
  }
  DenseMatrix q1, r1, q2, r2;
  ASSERT_OK(HouseholderQr(a, &q1, &r1));
  ASSERT_OK(HouseholderQr(pa, &q2, &r2));
  EXPECT_TRUE(r1.AllClose(r2, 1e-9));  // R unchanged
  for (int64_t i = 0; i < 12; ++i) {   // Q rows permuted identically
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(q2(i, j), q1(perm[i], j), 1e-9);
    }
  }
}

TEST(Qr, WideMatrixRejected) {
  DenseMatrix q, r;
  EXPECT_TRUE(HouseholderQr(DenseMatrix(2, 5), &q, &r).IsInvalid());
}

TEST(Qr, FullQExtendsThinQ) {
  const DenseMatrix a = RandomMatrix(9, 3, 18);
  DenseMatrix q, r, qf;
  ASSERT_OK(HouseholderQr(a, &q, &r));
  ASSERT_OK(FullQ(a, &qf));
  ASSERT_EQ(qf.rows(), 9);
  ASSERT_EQ(qf.cols(), 9);
  const DenseMatrix qtq = blas::CrossProd(qf, qf).ValueOrDie();
  EXPECT_TRUE(qtq.AllClose(DenseMatrix::Identity(9), 1e-9));
  for (int64_t i = 0; i < 9; ++i) {
    for (int64_t j = 0; j < 3; ++j) EXPECT_NEAR(qf(i, j), q(i, j), 1e-9);
  }
}

// --- Cholesky -------------------------------------------------------------------

TEST(Cholesky, ReconstructsSpdMatrix) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    const DenseMatrix a = RandomSpd(6, seed);
    const DenseMatrix u = Cholesky(a).ValueOrDie();
    const DenseMatrix utu = blas::CrossProd(u, u).ValueOrDie();
    EXPECT_TRUE(utu.AllClose(a, 1e-8)) << "seed " << seed;
    for (int64_t i = 0; i < 6; ++i) {
      for (int64_t j = 0; j < i; ++j) EXPECT_EQ(u(i, j), 0.0);
    }
  }
}

TEST(Cholesky, RejectsNonSymmetric) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 5;
  m(1, 0) = -5;
  m(1, 1) = 4;
  EXPECT_STATUS(kNumericError, Cholesky(m));
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix m = DenseMatrix::Identity(3);
  m(1, 1) = -1;
  EXPECT_STATUS(kNumericError, Cholesky(m));
}

// --- SVD -------------------------------------------------------------------------

struct SvdCase {
  int64_t rows;
  int64_t cols;
  uint64_t seed;
};

class SvdProperty : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdProperty, ReconstructsInput) {
  const SvdCase c = GetParam();
  const DenseMatrix a = RandomMatrix(c.rows, c.cols, c.seed);
  const SvdResult svd = Svd(a).ValueOrDie();
  // A = U diag(σ) Vᵀ.
  DenseMatrix us = svd.u;
  for (int64_t j = 0; j < us.cols(); ++j) {
    for (int64_t i = 0; i < us.rows(); ++i) {
      us(i, j) *= svd.sigma[static_cast<size_t>(j)];
    }
  }
  const DenseMatrix rec =
      blas::MatMul(us, svd.v.Transposed()).ValueOrDie();
  EXPECT_TRUE(rec.AllClose(a, 1e-8));
  // σ descending and non-negative.
  for (size_t i = 1; i < svd.sigma.size(); ++i) {
    EXPECT_LE(svd.sigma[i], svd.sigma[i - 1] + 1e-12);
    EXPECT_GE(svd.sigma[i], 0.0);
  }
  // U, V orthonormal columns.
  EXPECT_TRUE(blas::CrossProd(svd.u, svd.u)
                  .ValueOrDie()
                  .AllClose(DenseMatrix::Identity(svd.u.cols()), 1e-8));
  EXPECT_TRUE(blas::CrossProd(svd.v, svd.v)
                  .ValueOrDie()
                  .AllClose(DenseMatrix::Identity(svd.v.cols()), 1e-8));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(SvdCase{6, 6, 31}, SvdCase{20, 5, 32},
                      SvdCase{5, 20, 33}, SvdCase{40, 10, 34},
                      SvdCase{3, 1, 35}));

TEST(Svd, SingularValuesOfDiagonal) {
  DenseMatrix d(3, 3, 0.0);
  d(0, 0) = 2;
  d(1, 1) = -5;  // singular value is |−5|
  d(2, 2) = 1;
  const SvdResult svd = Svd(d).ValueOrDie();
  EXPECT_NEAR(svd.sigma[0], 5.0, 1e-10);
  EXPECT_NEAR(svd.sigma[1], 2.0, 1e-10);
  EXPECT_NEAR(svd.sigma[2], 1.0, 1e-10);
}

TEST(Svd, FullUIsSquareOrthogonal) {
  const DenseMatrix a = RandomMatrix(8, 3, 36);
  const DenseMatrix u = SvdFullU(a).ValueOrDie();
  ASSERT_EQ(u.rows(), 8);
  ASSERT_EQ(u.cols(), 8);
  EXPECT_TRUE(blas::CrossProd(u, u).ValueOrDie().AllClose(
      DenseMatrix::Identity(8), 1e-8));
}

TEST(Svd, RankOfLowRankMatrix) {
  // Outer product of two vectors has rank 1.
  DenseMatrix a(6, 1);
  DenseMatrix b(4, 1);
  for (int64_t i = 0; i < 6; ++i) a(i, 0) = i + 1.0;
  for (int64_t i = 0; i < 4; ++i) b(i, 0) = 2.0 * i + 1.0;
  const DenseMatrix m = blas::OuterProd(a, b).ValueOrDie();
  EXPECT_EQ(*MatrixRank(m), 1);
  EXPECT_EQ(*MatrixRank(DenseMatrix::Identity(5)), 5);
  EXPECT_EQ(*MatrixRank(RandomMatrix(10, 4, 37)), 4);
}

// --- Eigen -----------------------------------------------------------------------

TEST(Eigen, SymmetricKnown) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  DenseMatrix m(2, 2);
  m(0, 0) = 2;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 2;
  std::vector<double> values;
  DenseMatrix vectors;
  ASSERT_OK(SymmetricEigen(m, &values, &vectors));
  EXPECT_NEAR(values[0], 3.0, 1e-10);
  EXPECT_NEAR(values[1], 1.0, 1e-10);
}

TEST(Eigen, SymmetricSatisfiesDefinition) {
  for (uint64_t seed : {41u, 42u}) {
    const DenseMatrix a = RandomSpd(7, seed);
    std::vector<double> values;
    DenseMatrix vectors;
    ASSERT_OK(SymmetricEigen(a, &values, &vectors));
    // A v_j = λ_j v_j for every eigenpair.
    for (int64_t j = 0; j < 7; ++j) {
      const std::vector<double> v = vectors.Col(j);
      const std::vector<double> av = blas::MatVec(a, v).ValueOrDie();
      for (int64_t i = 0; i < 7; ++i) {
        EXPECT_NEAR(av[static_cast<size_t>(i)],
                    values[static_cast<size_t>(j)] * v[static_cast<size_t>(i)],
                    1e-8);
      }
    }
    // Trace equals the eigenvalue sum.
    double trace = 0;
    double sum = 0;
    for (int64_t i = 0; i < 7; ++i) trace += a(i, i);
    for (double v : values) sum += v;
    EXPECT_NEAR(trace, sum, 1e-8);
  }
}

TEST(Eigen, GeneralUpperTriangularHasDiagonalEigenvalues) {
  DenseMatrix m(3, 3, 0.0);
  m(0, 0) = 3;
  m(0, 1) = 1;
  m(1, 1) = -1;
  m(1, 2) = 2;
  m(2, 2) = 5;
  std::vector<double> values;
  ASSERT_OK(GeneralEigenvalues(m, &values));
  EXPECT_NEAR(values[0], 5.0, 1e-8);
  EXPECT_NEAR(values[1], 3.0, 1e-8);
  EXPECT_NEAR(values[2], -1.0, 1e-8);
}

TEST(Eigen, GeneralNonSymmetricRealEigenvalues) {
  // [[4,1],[2,3]] has eigenvalues 5 and 2.
  DenseMatrix m(2, 2);
  m(0, 0) = 4;
  m(0, 1) = 1;
  m(1, 0) = 2;
  m(1, 1) = 3;
  std::vector<double> values;
  ASSERT_OK(GeneralEigenvalues(m, &values));
  EXPECT_NEAR(values[0], 5.0, 1e-8);
  EXPECT_NEAR(values[1], 2.0, 1e-8);
}

TEST(Eigen, ComplexEigenvaluesReported) {
  // A rotation matrix has complex eigenvalues.
  DenseMatrix m(2, 2);
  m(0, 0) = 0;
  m(0, 1) = -1;
  m(1, 0) = 1;
  m(1, 1) = 0;
  std::vector<double> values;
  EXPECT_TRUE(GeneralEigenvalues(m, &values).IsNumericError());
}

}  // namespace
}  // namespace rma
