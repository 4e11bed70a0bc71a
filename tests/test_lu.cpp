// Tests for LU factorization with partial pivoting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/kkt.hpp"
#include "core/ls_pdip.hpp"
#include "core/negfree.hpp"
#include "core/newton_ls.hpp"
#include "core/newton_xbar.hpp"
#include "core/scaling.hpp"
#include "crossbar/amplifier.hpp"
#include "crossbar/crossbar.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "lp/generator.hpp"
#include "memristor/variation.hpp"
#include "noc/tiled.hpp"

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

// --- planned factorization ---------------------------------------------------
// A pivot plan eliminates its rows statically (larger-entry rule, deferral
// below LuFactorization::kStaticPivotThreshold × the column maximum) and
// leaves the rest to the dense kernel as the front.

/// ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞), the residual accumulated in long double.
double backward_error(const Matrix& a, std::span<const double> x,
                      std::span<const double> b) {
  long double residual = 0.0L;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    long double sum = b[i];
    for (std::size_t j = 0; j < a.cols(); ++j)
      sum -= static_cast<long double>(a(i, j)) * x[j];
    residual = std::max(residual, std::abs(sum));
  }
  return static_cast<double>(residual) /
         (a.inf_norm() * norm_inf(x) + norm_inf(b));
}

Vec normal_rhs(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.normal();
  return b;
}

void expect_bitwise_equal(const Vec& x, const Vec& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]) << i;
}

TEST(LuPlanned, SolvesTheSettleArray) {
  Rng rng(51);
  const auto problem = feasible_lp(32, rng);
  auto state = core::PdipState::ones(problem.num_variables(),
                                     problem.num_constraints());
  for (Vec* part : {&state.x, &state.y, &state.w, &state.z})
    for (double& v : *part) v = rng.uniform(0.01, 10.0);
  const core::KktLayout layout{problem.num_variables(),
                               problem.num_constraints()};
  const core::NegativeFreeSystem negfree(core::assemble_kkt(problem, state));
  const Matrix a = perturb_nonzeros(negfree.matrix(), rng);
  const PivotPlan plan = core::newton_pivot_plan(layout, negfree);
  ASSERT_EQ(plan.size(), a.rows());
  const Vec b = normal_rhs(a.rows(), rng);

  const LuFactorization dense(a);
  const LuFactorization planned(a, plan);
  ASSERT_FALSE(planned.singular());
  EXPECT_LT(planned.front_dim(), a.rows() / 4);
  EXPECT_EQ(dense.front_dim(), a.rows());
  EXPECT_LE(backward_error(a, planned.solve(b), b),
            10.0 * backward_error(a, dense.solve(b), b));
  EXPECT_NEAR(planned.log_abs_determinant(), dense.log_abs_determinant(),
              1e-9 * std::abs(dense.log_abs_determinant()));
  EXPECT_EQ(std::signbit(planned.determinant()),
            std::signbit(dense.determinant()));
}

TEST(LuPlanned, DefersAPivotBelowTheThreshold) {
  // Row 0's entry in column 0 is below 0.01 × that column's largest live
  // entry (row 1's), so row 0 joins the front; row 2's pivot passes.
  const Matrix a{{0.009, 1.0, 0.0}, {1.0, 2.0, 0.0}, {0.0, 0.0, 4.0}};
  const PivotPlan plan{{.row = 0, .column = 0}, {.row = 2, .column = 2}};
  const LuFactorization lu(a, plan);
  ASSERT_FALSE(lu.singular());
  EXPECT_EQ(lu.deferred_pivots(), 1U);
  EXPECT_EQ(lu.front_dim(), 2U);
  const Vec x{1.0, -2.0, 3.0};
  const Vec y = lu.solve(gemv(a, x));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y[i], x[i], 1e-14);
  EXPECT_NEAR(lu.determinant(), LuFactorization(a).determinant(), 1e-14);

  // At exactly 0.01 × the column maximum the pivot is taken.
  const Matrix at_threshold{{0.01, 1.0}, {1.0, 2.0}};
  const LuFactorization taken(at_threshold,
                              PivotPlan{{.row = 0, .column = 0}});
  EXPECT_EQ(taken.deferred_pivots(), 0U);
  EXPECT_EQ(taken.front_dim(), 1U);
}

TEST(LuPlanned, PicksTheLargerCandidate) {
  // Row 0 may pivot on column 0 or 1 and takes the larger entry (column
  // 1); row 1 then finds its only candidate gone and is deferred.
  const Matrix a{{1.0, 3.0, 0.0}, {0.0, 1.0, 1.0}, {1.0, 0.0, 2.0}};
  const PivotPlan plan{{.row = 0, .column = 0, .alternative = 1},
                       {.row = 1, .column = 1}};
  const LuFactorization lu(a, plan);
  ASSERT_FALSE(lu.singular());
  EXPECT_EQ(lu.deferred_pivots(), 1U);
  EXPECT_EQ(lu.front_dim(), 2U);
  const Vec b{1.0, 2.0, 3.0};
  EXPECT_LT(backward_error(a, lu.solve(b), b), 1e-15);
  EXPECT_NEAR(lu.determinant(), LuFactorization(a).determinant(), 1e-14);
}

TEST(LuPlanned, RowWithAllCandidatesGoneIsDeferred) {
  const Matrix a{{2.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 4.0}};
  const PivotPlan plan{{.row = 0, .column = 0},
                       {.row = 2, .column = 0, .alternative = 0}};
  const LuFactorization lu(a, plan);
  EXPECT_EQ(lu.deferred_pivots(), 1U);
  EXPECT_EQ(lu.front_dim(), 2U);
  const Vec b{1.0, 0.0, -1.0};
  EXPECT_LT(backward_error(a, lu.solve(b), b), 1e-15);
}

TEST(LuPlanned, AllDeferredPlanEqualsTheDenseFactor) {
  // Every plan row is deferred (its candidate is a structural zero), so the
  // front is the whole matrix in natural order: bit for bit the dense
  // factor, in solve() and determinant().
  Rng rng(52);
  Matrix a = zero_runs(130, rng);
  PivotPlan plan;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t column = (i + 30) % a.rows();
    a(i, column) = 0.0;
    plan.push_back({.row = i, .column = column});
  }
  const Vec b = normal_rhs(a.rows(), rng);
  const LuFactorization planned(a, plan);
  const LuFactorization dense(a);
  ASSERT_FALSE(dense.singular());
  EXPECT_EQ(planned.deferred_pivots(), a.rows());
  EXPECT_EQ(planned.front_dim(), a.rows());
  expect_bitwise_equal(planned.solve(b), dense.solve(b));
  EXPECT_EQ(planned.determinant(), dense.determinant());
}

TEST(LuPlanned, SingularFrontIsReported) {
  // Row 0 is eliminated statically; the front left over is [[1, 1],
  // [1, 1]].
  const Matrix a{{2.0, 0.0, 0.0}, {0.0, 1.0, 1.0}, {0.0, 1.0, 1.0}};
  const LuFactorization lu(a, PivotPlan{{.row = 0, .column = 0}});
  EXPECT_TRUE(lu.singular());
  EXPECT_EQ(lu.front_dim(), 2U);
  EXPECT_EQ(lu.determinant(), 0.0);
}

// Backward-error gate over whole crossbar solves: every settle of the xbar
// and ls solvers, at m = 64 and 128 and 0, 5 and 20 % variation, is solved
// with the planned factor it uses and with the dense factor of the same
// array and right-hand side. For xbar the planned backward error must stay
// within 10× the dense one; for ls it is reported (see LsPlannedSettles).
// The forward difference is reported, not gated.

/// The matrix a settle of `array` factors.
const Matrix& effective_of(const xbar::Crossbar& array) {
  return array.effective();
}
Matrix effective_of(const noc::TiledCrossbarMatrix& array) {
  return array.assemble_effective();
}

/// A backend over a single crossbar or a tiled NoC that checks every settle
/// against the dense factor of the same array.
template <class Array>
class SettleProbe final : public core::AnalogBackend {
 public:
  /// `gated` = false records the planned/dense ratios without checking
  /// them.
  template <class Config>
  SettleProbe(const Config& config, Rng rng, bool gated = true)
      : array_(config, rng), gated_(gated) {}

  void program(const Matrix& a, double full_scale_hint,
               PivotPlan plan) override {
    plan_ = plan;
    array_.program(a, full_scale_hint, std::move(plan));
  }
  void update_cells(std::span<const xbar::CellUpdate> updates) override {
    array_.update_cells(updates);
  }
  Vec multiply(std::span<const double> x, IoBoundary io) override {
    return array_.multiply(x, io);
  }
  std::optional<Vec> solve(std::span<const double> b,
                           IoBoundary io) override {
    EXPECT_EQ(io, IoBoundary::kOutputOnly);  // b reaches the array as is
    auto x = array_.solve(b, io);
    const std::uint64_t factorizations =
        array_.settle_cache_stats().full_factorizations;
    if (factorizations != factorizations_) {
      factorizations_ = factorizations;
      a_ = effective_of(array_);
      planned_.emplace(a_, plan_);
      dense_.emplace(a_);
      fronts.push_back(planned_->front_dim());
    }
    if (planned_->singular() || dense_->singular()) return x;
    const Vec planned_x = planned_->solve(b);
    const Vec dense_x = dense_->solve(b);
    const double planned_error = backward_error(a_, planned_x, b);
    const double dense_error = backward_error(a_, dense_x, b);
    if (gated_) {
      EXPECT_LE(planned_error, 10.0 * dense_error)
          << "settle " << settles << " (front " << planned_->front_dim()
          << ")";
    }
    if (planned_error > 10.0 * dense_error) ++settles_over_tenfold;
    worst_ratio = std::max(worst_ratio, planned_error / dense_error);
    worst_forward = std::max(
        worst_forward, norm_inf(sub(planned_x, dense_x)) / norm_inf(dense_x));
    ++settles;
    return x;
  }
  core::BackendStats stats() const override {
    core::BackendStats s;
    s.settle_cache = array_.settle_cache_stats();
    return s;
  }
  const LuFactorization* settle_factor() const override {
    return array_.settle_factor();
  }
  void reset_stats() override { array_.reset_stats(); }
  std::string describe() const override { return "settle probe"; }

  [[nodiscard]] std::size_t max_front() const {
    return fronts.empty() ? 0 : *std::max_element(fronts.begin(), fronts.end());
  }

  std::size_t settles = 0;
  std::vector<std::size_t> fronts;  ///< of every factorization seen.
  std::size_t settles_over_tenfold = 0;  ///< planned > 10× dense error.
  double worst_ratio = 0.0;  ///< planned / dense backward error.
  double worst_forward = 0.0;

 private:
  Array array_;
  bool gated_;
  PivotPlan plan_;
  std::uint64_t factorizations_ = 0;
  Matrix a_;
  std::optional<LuFactorization> planned_;
  std::optional<LuFactorization> dense_;
};

struct SettleCase {
  std::size_t constraints = 0;
  double variation = 0.0;
};

void PrintTo(const SettleCase& c, std::ostream* os) {
  *os << "m" << c.constraints << "_var" << c.variation * 100.0;
}

class LuPlannedSettles : public ::testing::TestWithParam<SettleCase> {};

TEST_P(LuPlannedSettles, BackwardErrorWithinTenfoldOfDense) {
  const auto [constraints, variation] = GetParam();
  Rng rng(600 + constraints);
  const auto original = feasible_lp(constraints, rng);
  // The xbar solver's set-up (core/xbar_pdip.cpp), on the probe backend.
  const core::ProblemScaling scaling(original);
  const lp::LinearProgram& problem = scaling.scaled();
  const core::KktLayout layout{problem.num_variables(),
                               problem.num_constraints()};
  core::NegativeFreeSystem negfree(core::assemble_kkt(
      problem, core::PdipState::ones(layout.n, layout.m)));
  core::XbarPdipOptions options;
  options.hardware.crossbar.variation =
      variation > 0.0 ? mem::VariationModel::uniform(variation)
                      : mem::VariationModel::none();
  SettleProbe<xbar::Crossbar> probe(options.hardware.crossbar,
                                    Rng(options.seed).split());
  xbar::AmplifierBank amps;
  core::EngineConfig config;
  config.solver_name = "xbar";
  config.mehrotra = core::MehrotraMode::kCorrectorRefine;
  config.affine_exact = false;
  config.mu_mean_floor = 1e-300;
  config.step_dead_floor = 100.0 * options.state_floor;
  config.state_floor = options.state_floor;
  config.frozen_limit = 5;
  config.attempt_mode = true;
  config.acceptance_merit = options.acceptance_merit;
  config.stall_window = options.stall_window;
  core::AnalogSolveSpec spec;
  spec.max_retries = options.max_retries;
  spec.acceptance_merit = options.acceptance_merit;
  spec.alpha = options.alpha;
  spec.variation_magnitude = variation;
  core::XbarNewton newton(problem, options, layout, negfree, probe, amps);
  const auto outcome = core::solve_analog_pdip(
      problem, scaling, options.pdip, config, spec, newton, nullptr);

  EXPECT_GT(probe.settles, 40U);
  EXPECT_LT(probe.max_front(), negfree.dim() / 2);
  std::printf("m = %zu, %.0f %% variation: %zu settles, %s, front <= %zu of "
              "%zu, planned/dense backward error <= %.3g, forward "
              "difference <= %.3g\n",
              constraints, variation * 100.0, probe.settles,
              lp::to_string(outcome.result.status).c_str(),
              probe.max_front(), negfree.dim(), probe.worst_ratio,
              probe.worst_forward);
}

INSTANTIATE_TEST_SUITE_P(Xbar, LuPlannedSettles,
                         ::testing::Values(SettleCase{64, 0.0},
                                           SettleCase{64, 0.05},
                                           SettleCase{64, 0.20},
                                           SettleCase{128, 0.0},
                                           SettleCase{128, 0.05},
                                           SettleCase{128, 0.20}));

// The same probe over whole ls solves (core/ls_pdip.hpp), whose M1 settles
// follow core::ls_pivot_plan, on the single crossbar and on a 64-wide tile
// grid. The ls plan does not meet the 10×-dense rule of
// Xbar/LuPlannedSettles: it eliminates y on the w/ŷ pivots, which the
// threshold rule accepts down to 0.01 of their column, and so forms the
// normal-equations block X⁻¹Z + Aᵀ(Ŷ/W)A, whose round-off the dense factor
// of the augmented array does not have (worst ratio 88 on 64-wide tiles).
// So this test prints the worst ratio and the number of settles over 10×
// and checks the fronts, not the backward error.

struct LsSettleCase {
  std::size_t constraints = 0;
  double variation = 0.0;
  std::size_t tile_dim = 0;  ///< 0 = the single crossbar.
};

void PrintTo(const LsSettleCase& c, std::ostream* os) {
  *os << "m" << c.constraints << "_var" << c.variation * 100.0 << "_tile"
      << c.tile_dim;
}

template <class Array, class Config>
void check_ls_settles(const LsSettleCase& c, const Config& array_config,
                      const core::LsPdipOptions& options,
                      const lp::LinearProgram& original) {
  // The ls solver's set-up (core/ls_pdip.cpp), M1 on the probe backend.
  const core::ProblemScaling scaling(original);
  const lp::LinearProgram& problem = scaling.scaled();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  Rng rng(options.seed);
  core::NegativeFreeSystem negfree(core::build_schur_m1(
      problem, core::PdipState::ones(n, m), options.ratio_cap));
  SettleProbe<Array> probe(array_config, rng.split(), /*gated=*/false);
  xbar::AmplifierBank amps;
  core::EngineConfig config;
  config.solver_name = "ls";
  config.supports_mehrotra = false;
  config.constant_theta = options.theta;
  config.state_floor = options.state_floor;
  config.attempt_mode = true;
  config.acceptance_merit = options.acceptance_merit;
  config.stall_window = options.stall_window;
  core::AnalogSolveSpec spec;
  spec.solver_name = "ls";
  spec.max_retries = options.max_retries;
  spec.acceptance_merit = options.acceptance_merit;
  spec.alpha = options.alpha;
  spec.variation_magnitude = c.variation;
  core::LsNewton newton(problem, options, negfree, probe, nullptr, amps);
  const auto outcome = core::solve_analog_pdip(
      problem, scaling, options.pdip, config, spec, newton, nullptr);

  EXPECT_GT(probe.settles, 15U);
  EXPECT_LT(probe.max_front(), negfree.dim() / 2);
  const core::SettleFrontStats& fronts = outcome.stats.settle_fronts;
  EXPECT_EQ(fronts.factorizations, probe.fronts.size());
  EXPECT_EQ(fronts.front_dim_max, probe.max_front());
  std::printf("ls m = %zu, %.0f %% variation, %s: %zu settles, %s, front "
              "p50 %zu / max %zu of %zu, planned/dense backward error <= "
              "%.3g (%zu settles over 10x), forward difference <= %.3g\n",
              c.constraints, c.variation * 100.0,
              c.tile_dim == 0 ? "single crossbar" : "64-wide tiles",
              probe.settles, lp::to_string(outcome.result.status).c_str(),
              fronts.front_dim_p50, fronts.front_dim_max, negfree.dim(),
              probe.worst_ratio, probe.settles_over_tenfold,
              probe.worst_forward);
}

class LsPlannedSettles : public ::testing::TestWithParam<LsSettleCase> {};

TEST_P(LsPlannedSettles, ReportsBackwardErrorAgainstDense) {
  const LsSettleCase c = GetParam();
  Rng rng(700 + c.constraints);
  const auto original = feasible_lp(c.constraints, rng);
  core::LsPdipOptions options;
  options.hardware.crossbar.variation =
      c.variation > 0.0 ? mem::VariationModel::uniform(c.variation)
                        : mem::VariationModel::none();
  // M1's corner diagonals use per-cell gain-ranged writes, as in the solver.
  xbar::CrossbarConfig m1 = options.hardware.crossbar;
  m1.per_cell_gain_ranging = true;
  if (c.tile_dim == 0) {
    check_ls_settles<xbar::Crossbar>(c, m1, options, original);
  } else {
    m1.max_dim = 0;
    check_ls_settles<noc::TiledCrossbarMatrix>(
        c, noc::TiledConfig{c.tile_dim, options.hardware.topology, m1},
        options, original);
  }
}

std::vector<LsSettleCase> ls_settle_cases() {
  std::vector<LsSettleCase> cases;
  for (const std::size_t tile_dim : {std::size_t{0}, std::size_t{64}})
    for (const std::size_t constraints : {64, 128})
      for (const double variation : {0.0, 0.05, 0.20})
        cases.push_back({constraints, variation, tile_dim});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Ls, LsPlannedSettles,
                         ::testing::ValuesIn(ls_settle_cases()));

TEST(LsPlanned, PlanCoversEachRowOnce) {
  // The ls plan over the negative-free Schur M1 at m = 24: every row of the
  // array exactly once, every pivot on a distinct column that holds a
  // nonzero of its row. Its factor of the array at an interior iterate has
  // a small front and the dense factor's accuracy.
  Rng rng(53);
  const auto problem = feasible_lp(24, rng);
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  auto state = core::PdipState::ones(n, m);
  for (Vec* part : {&state.x, &state.y, &state.w, &state.z})
    for (double& v : *part) v = rng.uniform(0.01, 10.0);
  const core::NegativeFreeSystem negfree(
      core::build_schur_m1(problem, state, 1e3));
  const Matrix a = perturb_nonzeros(negfree.matrix(), rng);
  const PivotPlan plan = core::ls_pivot_plan(n, m, negfree);
  ASSERT_EQ(plan.size(), negfree.dim());
  std::vector<int> row_seen(negfree.dim(), 0);
  std::vector<int> column_seen(negfree.dim(), 0);
  for (const PlannedPivot& pivot : plan) {
    ASSERT_LT(pivot.row, negfree.dim());
    ASSERT_LT(pivot.column, negfree.dim());
    EXPECT_EQ(pivot.alternative, PlannedPivot::kNoColumn);
    EXPECT_NE(a(pivot.row, pivot.column), 0.0) << pivot.row;
    ++row_seen[pivot.row];
    ++column_seen[pivot.column];
  }
  for (std::size_t i = 0; i < negfree.dim(); ++i) {
    EXPECT_EQ(row_seen[i], 1) << "row " << i;
    EXPECT_EQ(column_seen[i], 1) << "column " << i;
  }

  const LuFactorization dense(a);
  const LuFactorization planned(a, plan);
  ASSERT_FALSE(planned.singular());
  EXPECT_LT(planned.front_dim(), a.rows() / 4);
  const Vec b = normal_rhs(a.rows(), rng);
  EXPECT_LE(backward_error(a, planned.solve(b), b),
            10.0 * backward_error(a, dense.solve(b), b));
  EXPECT_NEAR(planned.log_abs_determinant(), dense.log_abs_determinant(),
              1e-9 * std::abs(dense.log_abs_determinant()));
}

}  // namespace
}  // namespace memlp
