// Tests for LU factorization with partial pivoting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/kkt.hpp"
#include "core/negfree.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "lp/generator.hpp"

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
/// bit for bit), followed by the same substitution recurrences as solve()
/// and the same determinant product as determinant().
struct UnblockedResult {
  Vec x;
  double determinant = 0.0;
};

UnblockedResult unblocked_lu_solve(Matrix lu, std::span<const double> b) {
  const std::size_t n = lu.rows();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;
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
      sign = -sign;
    }
    const double inv_pivot = 1.0 / lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = lu(i, k) * inv_pivot;
      lu(i, k) = lik;
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= lik * lu(k, j);
    }
  }
  UnblockedResult result;
  Vec& x = result.x;
  x.resize(n);
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
  result.determinant = static_cast<double>(sign);
  for (std::size_t i = 0; i < n; ++i) result.determinant *= lu(i, i);
  return result;
}

// --- structured matrices -----------------------------------------------------
// The production kernel skips structural zeros (zero multipliers, pivot rows
// zero right of their panel, zero runs inside pivot rows); these matrices
// put such zeros where the panel (32 columns) and run bookkeeping change.

/// Scales every nonzero by 1 ± 5 %, as device variation does: no exact ties.
Matrix perturb_nonzeros(Matrix a, Rng& rng) {
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (double& v : a.row(i))
      if (v != 0.0) v *= 1.0 + rng.uniform(-0.05, 0.05);
  return a;
}

lp::LinearProgram feasible_lp(std::size_t constraints, Rng& rng) {
  lp::GeneratorOptions gen;
  gen.constraints = constraints;
  return lp::random_feasible(gen, rng);
}

/// The crossbar settle array: the negative-free augmentation of the Eq. (12)
/// KKT at a random interior iterate, nonzeros perturbed.
Matrix negfree_kkt(std::size_t constraints, std::uint64_t seed) {
  Rng rng(seed);
  const auto problem = feasible_lp(constraints, rng);
  auto state = core::PdipState::ones(problem.num_variables(),
                                     problem.num_constraints());
  for (Vec* part : {&state.x, &state.y, &state.w, &state.z})
    for (double& v : *part) v = rng.uniform(0.01, 10.0);
  return perturb_nonzeros(
      core::NegativeFreeSystem(core::assemble_kkt(problem, state)).matrix(),
      rng);
}

/// The software pdip's KKT at the all-ones start: its identity and X, Y,
/// Z, W blocks are exact ±1, so pivot searches meet ties.
Matrix pdip_kkt_ones(std::size_t constraints, std::uint64_t seed) {
  Rng rng(seed);
  const auto problem = feasible_lp(constraints, rng);
  return core::assemble_kkt(
      problem, core::PdipState::ones(problem.num_variables(),
                                     problem.num_constraints()));
}

/// Diagonally dominant with zero runs: every row is zero on columns
/// [28, 36) (straddling the 31/32/33 panel edge) and on gaps of 15, 16 and
/// 17 columns (around the longest gap a run keeps inside).
Matrix zero_runs(std::size_t n, Rng& rng) {
  Matrix a = random_well_conditioned(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool straddle = j >= 28 && j < 36;
      const bool gaps = (j >= 40 && j < 55) || (j >= 70 && j < 86) ||
                        (j >= 100 && j < 117);
      if (i != j && (straddle || gaps)) a(i, j) = 0.0;
    }
  }
  return a;
}

/// Off the diagonal, columns 64.. hold only stripes 3 wide every 20
/// columns, a pattern elimination keeps: the early pivot rows have more
/// zero-separated runs than a pivot row records.
Matrix many_runs(std::size_t n, Rng& rng) {
  Matrix a = random_well_conditioned(n, rng);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 64; j < n; ++j)
      if (i != j && (j - 64) % 20 >= 3) a(i, j) = 0.0;
  return a;
}

/// Random ±1 entries: every pivot search meets ties, which partial
/// pivoting breaks towards the first row.
Matrix signs(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = rng.uniform() < 0.5 ? -1.0 : 1.0;
  return a;
}

/// Rows 70..79 are zero on columns [0, 64): their multipliers are all zero
/// across the first two panels, so those panels pass them by.
Matrix zero_multiplier_rows(std::size_t n, Rng& rng) {
  Matrix a = random_well_conditioned(n, rng);
  for (std::size_t i = 70; i < 80; ++i)
    for (std::size_t j = 0; j < 64; ++j) a(i, j) = 0.0;
  return a;
}

/// Block lower triangular [[B, 0], [C, D]] with a 32-row B: the first
/// panel's pivot rows are zero right of the panel while the rows below
/// still carry nonzero multipliers.
Matrix empty_pivot_rows(std::size_t n, Rng& rng) {
  Matrix a = random_well_conditioned(n, rng);
  for (std::size_t i = 0; i < 32; ++i) {
    a(i, i) += 100.0;
    for (std::size_t j = 32; j < n; ++j) a(i, j) = 0.0;
  }
  return a;
}

// The panel-blocked elimination must be BIT-IDENTICAL to the unblocked
// algorithm, in solve() and determinant(): on dense matrices at sizes that
// exercise a partial final panel (n % 32 != 0), exact panel multiples and
// the parallel trailing-update path (trailing rows >= 96), and on the
// structured matrices above — the exact-settle golden traces depend on it.
struct BitExactCase {
  std::string name;
  Matrix a;
  Vec b;
};

// Names the case in test ids: a dense case by its size, as before.
void PrintTo(const BitExactCase& c, std::ostream* os) { *os << c.name; }

/// A case with a normal right-hand side drawn after the matrix.
BitExactCase with_rhs(std::string name, Matrix a, Rng& rng) {
  Vec b(a.rows());
  for (double& v : b) v = rng.normal();
  return {std::move(name), std::move(a), std::move(b)};
}

BitExactCase dense_case(std::size_t n) {
  Rng rng(3000 + n);
  Matrix a = random_well_conditioned(n, rng);
  return with_rhs(std::to_string(n), std::move(a), rng);
}

std::vector<BitExactCase> structured_cases() {
  Rng rng(4000);
  std::vector<BitExactCase> cases;
  cases.push_back(with_rhs("negfree_kkt_m16", negfree_kkt(16, 41), rng));
  cases.push_back(with_rhs("negfree_kkt_m64", negfree_kkt(64, 42), rng));
  cases.push_back(with_rhs("pdip_kkt_ones_m64", pdip_kkt_ones(64, 43), rng));
  cases.push_back(with_rhs("zero_runs", zero_runs(130, rng), rng));
  cases.push_back(with_rhs("many_runs", many_runs(300, rng), rng));
  cases.push_back(with_rhs("signs", signs(100, rng), rng));
  cases.push_back(
      with_rhs("zero_multiplier_rows", zero_multiplier_rows(100, rng), rng));
  cases.push_back(
      with_rhs("empty_pivot_rows", empty_pivot_rows(100, rng), rng));
  return cases;
}

class LuBlockedBitExact : public ::testing::TestWithParam<BitExactCase> {};

TEST_P(LuBlockedBitExact, MatchesUnblockedEliminationBitwise) {
  const auto& [name, a, b] = GetParam();
  const std::size_t n = a.rows();
  const LuFactorization lu(a);
  ASSERT_FALSE(lu.singular());
  const Vec x = lu.solve(b);
  const UnblockedResult reference = unblocked_lu_solve(a, b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(x[i], reference.x[i]) << name << " row " << i;
  EXPECT_EQ(lu.determinant(), reference.determinant);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LuBlockedBitExact,
                         ::testing::ValuesIn([] {
                           std::vector<BitExactCase> cases;
                           for (const std::size_t n :
                                {1, 31, 32, 33, 64, 97, 130, 160})
                             cases.push_back(dense_case(n));
                           return cases;
                         }()));

INSTANTIATE_TEST_SUITE_P(Structured, LuBlockedBitExact,
                         ::testing::ValuesIn(structured_cases()));

}  // namespace
}  // namespace memlp
