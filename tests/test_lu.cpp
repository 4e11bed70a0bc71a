// Tests for LU factorization with partial pivoting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"

namespace memlp {
namespace {

Matrix random_well_conditioned(std::size_t n, Rng& rng) {
  // Random matrix with boosted diagonal — comfortably non-singular.
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    m(i, i) += static_cast<double>(n) + 1.0;
  return m;
}

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2, 1}, {1, 3}};
  const Vec b{3, 5};
  const Vec x = lu_solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, IdentityIsFixedPoint) {
  const Matrix eye = Matrix::identity(5);
  const Vec b{1, 2, 3, 4, 5};
  EXPECT_EQ(lu_solve(eye, b), b);
}

TEST(Lu, RequiresSquare) {
  EXPECT_THROW(LuFactorization(Matrix(2, 3)), DimensionError);
}

TEST(Lu, DetectsSingular) {
  const Matrix singular{{1, 2}, {2, 4}};
  const LuFactorization lu(singular);
  EXPECT_TRUE(lu.singular());
  EXPECT_EQ(lu.determinant(), 0.0);
  EXPECT_THROW(lu_solve(singular, Vec{1, 1}), NumericalError);
  EXPECT_FALSE(lu.inverse_norm_estimate().has_value());
}

TEST(Lu, ZeroPivotNeedsRowSwap) {
  // (0,0) entry is zero; partial pivoting must still factor it.
  const Matrix a{{0, 1}, {1, 0}};
  const Vec x = lu_solve(a, Vec{2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DeterminantKnownValues) {
  const LuFactorization lu(Matrix{{3, 0}, {0, 2}});
  EXPECT_NEAR(lu.determinant(), 6.0, 1e-12);
  // Permutation flips the sign.
  const LuFactorization perm(Matrix{{0, 1}, {1, 0}});
  EXPECT_NEAR(perm.determinant(), -1.0, 1e-12);
}

TEST(Lu, LogAbsDeterminantMatches) {
  Rng rng(5);
  const Matrix a = random_well_conditioned(6, rng);
  const LuFactorization lu(a);
  EXPECT_NEAR(lu.log_abs_determinant(), std::log(std::abs(lu.determinant())),
              1e-9);
}

TEST(Lu, SolveTransposedMatchesTransposeSolve) {
  Rng rng(6);
  const Matrix a = random_well_conditioned(8, rng);
  Vec b(8);
  for (double& v : b) v = rng.normal();
  const LuFactorization lu(a);
  const Vec xt = lu.solve_transposed(b);
  const Vec expected = lu_solve(a.transposed(), b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(xt[i], expected[i], 1e-9);
}

TEST(Lu, InverseNormEstimateIsLowerBoundOfTrueNorm) {
  // For diag(1, 1/2, 1/10): ||A^{-1}||_1 = 10.
  const Matrix a = Matrix::diagonal(Vec{1.0, 0.5, 0.1});
  const LuFactorization lu(a);
  const auto estimate = lu.inverse_norm_estimate();
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, 10.0, 1e-6);
}

// Property sweep: residual of random solves is tiny across sizes.
class LuRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRoundTrip, ResidualIsSmall) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  const Matrix a = random_well_conditioned(n, rng);
  Vec b(n);
  for (double& v : b) v = rng.normal();
  const Vec x = lu_solve(a, b);
  const Vec residual = sub(gemv(a, x), b);
  EXPECT_LT(norm_inf(residual), 1e-9 * (1.0 + norm_inf(b)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LuRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144));

// Property: solve(A, A*x) recovers x.
class LuRecovery : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRecovery, RecoversKnownSolution) {
  const std::size_t n = GetParam();
  Rng rng(2000 + n);
  const Matrix a = random_well_conditioned(n, rng);
  Vec x_true(n);
  for (double& v : x_true) v = rng.uniform(-2.0, 2.0);
  const Vec b = gemv(a, x_true);
  const Vec x = lu_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LuRecovery,
                         ::testing::Values(2, 4, 16, 32, 64, 100));

/// Reference implementation: the plain unblocked right-looking elimination
/// (the algorithm the panel-blocked production code claims to reproduce
/// bit for bit), followed by the same substitution recurrences as solve().
Vec unblocked_lu_solve(Matrix lu, std::span<const double> b) {
  const std::size_t n = lu.rows();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  const double scale = std::max(lu.max_abs(), 1.0);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(lu(i, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    EXPECT_GT(pivot_mag, 1e-13 * scale);
    if (pivot_row != k) {
      std::swap_ranges(lu.row(k).begin(), lu.row(k).end(),
                       lu.row(pivot_row).begin());
      std::swap(perm[k], perm[pivot_row]);
    }
    const double inv_pivot = 1.0 / lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = lu(i, k) * inv_pivot;
      lu(i, k) = lik;
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= lik * lu(k, j);
    }
  }
  Vec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) sum -= lu(i, j) * x[j];
    x[i] = sum;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu(ii, j) * x[j];
    x[ii] = sum / lu(ii, ii);
  }
  return x;
}

// The panel-blocked elimination must be BIT-IDENTICAL to the unblocked
// algorithm across sizes that exercise a partial final panel (n % 32 != 0),
// exact panel multiples, and the parallel trailing-update path (trailing
// rows >= 96) — the exact-settle golden traces depend on it.
class LuBlockedBitExact : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuBlockedBitExact, MatchesUnblockedEliminationBitwise) {
  const std::size_t n = GetParam();
  Rng rng(3000 + n);
  const Matrix a = random_well_conditioned(n, rng);
  Vec b(n);
  for (double& v : b) v = rng.normal();
  const LuFactorization lu(a);
  ASSERT_FALSE(lu.singular());
  const Vec x = lu.solve(b);
  const Vec reference = unblocked_lu_solve(a, b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(x[i], reference[i]) << "row " << i << " at n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LuBlockedBitExact,
                         ::testing::Values(1, 31, 32, 33, 64, 97, 130, 160));

}  // namespace
}  // namespace memlp
