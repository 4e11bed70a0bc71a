// Tests for the factorization-reuse cache: a factor is reused until the
// matrix is reported changed, then re-factored to the bit-exact fresh LU.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/factor_cache.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"

namespace memlp {
namespace {

Matrix random_well_conditioned(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    m(i, i) += static_cast<double>(n) + 1.0;
  return m;
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.normal();
  return b;
}

/// Prepares `cache` over the matrix `a` (built, and copied, only on a miss).
bool prepare(FactorizationCache& cache, const Matrix& a) {
  return cache.prepare(a.rows(), [&](Matrix& out) { out = a; });
}

double solve_error(const Matrix& a, std::span<const double> b,
                   std::span<const double> x) {
  const Vec residual = sub(gemv(a, Vec(x.begin(), x.end())),
                           Vec(b.begin(), b.end()));
  return norm_inf(residual) / std::max(1.0, norm_inf(b));
}

TEST(FactorCache, NonIncrementalMatchesDirectLuBitwise) {
  Rng rng(1);
  const std::size_t n = 17;
  const Matrix a = random_well_conditioned(n, rng);
  const Vec b = random_vec(n, rng);
  FactorizationCache cache;
  ASSERT_TRUE(prepare(cache, a));
  const Vec x = cache.solve(b);
  const Vec expected = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], expected[i]);
}

TEST(FactorCache, PrepareWithNothingDirtyIsAHit) {
  Rng rng(2);
  const Matrix a = random_well_conditioned(9, rng);
  FactorizationCache cache;
  ASSERT_TRUE(prepare(cache, a));
  EXPECT_EQ(cache.stats().full_factorizations, 1u);
  ASSERT_TRUE(prepare(cache, a));
  ASSERT_TRUE(prepare(cache, a));
  EXPECT_EQ(cache.stats().full_factorizations, 1u);
  EXPECT_EQ(cache.stats().prepare_hits, 2u);
}

TEST(FactorCache, HitBuildsNothing) {
  // The matrix is built only when the cache re-factors: a hit neither
  // assembles nor copies it.
  Rng rng(12);
  const Matrix a = random_well_conditioned(7, rng);
  FactorizationCache cache;
  std::size_t builds = 0;
  const auto build = [&](Matrix& out) {
    ++builds;
    out = a;
  };
  ASSERT_TRUE(cache.prepare(a.rows(), build));
  ASSERT_TRUE(cache.prepare(a.rows(), build));
  EXPECT_EQ(builds, 1u);
  cache.invalidate();
  ASSERT_TRUE(cache.prepare(a.rows(), build));
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(cache.stats().prepare_hits, 1u);
}

TEST(FactorCache, RefactorReusesReleasedStorage) {
  // invalidate() keeps the dropped factor's N² storage and the next miss
  // hands it to the builder; a hit builds nothing, and set_plan() (like a
  // change of size) starts from fresh storage. The factor built into reused
  // storage is bit for bit the fresh one.
  Rng rng(13);
  const std::size_t n = 11;
  Matrix a = random_well_conditioned(n, rng);
  FactorizationCache cache;
  std::size_t builds = 0;
  const double* handed = nullptr;  // the storage the builder was given
  const double* built = nullptr;   // the storage the factor took over
  std::size_t handed_rows = 0;
  const auto build = [&](Matrix& out) {
    ++builds;
    handed = out.empty() ? nullptr : out.data().data();
    handed_rows = out.rows();
    out = a;
    built = out.data().data();
  };
  ASSERT_TRUE(cache.prepare(n, build));
  EXPECT_EQ(handed, nullptr);  // the first factor starts from nothing
  const double* factor_storage = built;

  ASSERT_TRUE(cache.prepare(n, build));  // a hit builds nothing
  EXPECT_EQ(builds, 1u);

  a(3, 3) += 1.0;
  cache.invalidate();
  ASSERT_TRUE(cache.prepare(n, build));
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(handed, factor_storage);
  EXPECT_EQ(handed_rows, n);
  const Vec b = random_vec(n, rng);
  const Vec x = cache.solve(b);
  const Vec expected = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], expected[i]);

  cache.invalidate();
  cache.set_plan({});  // drops the kept storage
  ASSERT_TRUE(cache.prepare(n, build));
  EXPECT_EQ(builds, 3u);
  EXPECT_EQ(handed, nullptr);

  cache.invalidate();  // kept storage of the wrong size is not handed on
  const Matrix bigger = random_well_conditioned(n + 2, rng);
  ASSERT_TRUE(cache.prepare(n + 2, [&](Matrix& out) {
    handed = out.empty() ? nullptr : out.data().data();
    out = bigger;
  }));
  EXPECT_EQ(handed, nullptr);
}

TEST(FactorCache, NoteRowForcesRefactorInExactMode) {
  Rng rng(3);
  Matrix a = random_well_conditioned(9, rng);
  FactorizationCache cache;
  ASSERT_TRUE(prepare(cache, a));
  a(4, 4) += 1.0;
  cache.invalidate();
  const Vec b = random_vec(9, rng);
  ASSERT_TRUE(prepare(cache, a));
  EXPECT_EQ(cache.stats().full_factorizations, 2u);
  const Vec x = cache.solve(b);
  const Vec expected = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(x[i], expected[i]);
}

TEST(FactorCache, NoteAllDropsTheCorrectionState) {
  // A change set spread over the whole matrix is reported by the same one
  // call as a single-cell change, and re-factors to the fresh LU.
  Rng rng(8);
  const std::size_t n = 14;
  Matrix a = random_well_conditioned(n, rng);
  FactorizationCache cache;
  ASSERT_TRUE(prepare(cache, a));
  a(1, 1) += 0.5;
  cache.invalidate();
  ASSERT_TRUE(prepare(cache, a));
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.1;
  cache.invalidate();
  ASSERT_TRUE(prepare(cache, a));
  EXPECT_EQ(cache.stats().full_factorizations, 3u);
  EXPECT_EQ(cache.stats().prepare_hits, 0u);
  const Vec b = random_vec(n, rng);
  const Vec x = cache.solve(b);
  const Vec expected = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], expected[i]);
}

TEST(FactorCache, SingularMatrixReportsFailure) {
  Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  FactorizationCache cache;
  EXPECT_FALSE(prepare(cache, singular));
  EXPECT_FALSE(cache.ready());
}

TEST(FactorCache, RecoversAfterSingularPhase) {
  // A singular prepare must not poison the cache once the matrix is fixed.
  Rng rng(9);
  Matrix a = random_well_conditioned(6, rng);
  FactorizationCache cache;
  ASSERT_TRUE(prepare(cache, a));
  Matrix broken = a;
  for (std::size_t j = 0; j < 6; ++j) broken(2, j) = 0.0;
  cache.invalidate();
  EXPECT_FALSE(prepare(cache, broken));
  // Unchanged and still singular: the cached verdict stands.
  EXPECT_FALSE(prepare(cache, broken));
  cache.invalidate();
  ASSERT_TRUE(prepare(cache, a));
  const Vec b = random_vec(6, rng);
  EXPECT_LT(solve_error(a, b, cache.solve(b)), 1e-12);
}

TEST(FactorCache, ShapeChangeInvalidates) {
  Rng rng(10);
  FactorizationCache cache;
  ASSERT_TRUE(prepare(cache, random_well_conditioned(5, rng)));
  const Matrix bigger = random_well_conditioned(8, rng);
  ASSERT_TRUE(prepare(cache, bigger));
  EXPECT_EQ(cache.stats().full_factorizations, 2u);
  const Vec b = random_vec(8, rng);
  EXPECT_LT(solve_error(bigger, b, cache.solve(b)), 1e-12);
}

TEST(FactorCache, SolveBeforePrepareIsAContractViolation) {
  FactorizationCache cache;
  const Vec b{1.0, 2.0};
  EXPECT_THROW((void)cache.solve(b), ContractViolation);
}

TEST(FactorCache, SolveAfterInvalidateIsAContractViolation) {
  // A reported change drops the factor: a stale LU can never be solved
  // against before the next prepare().
  Rng rng(11);
  const Matrix a = random_well_conditioned(4, rng);
  FactorizationCache cache;
  ASSERT_TRUE(prepare(cache, a));
  cache.invalidate();
  EXPECT_THROW((void)cache.solve(random_vec(4, rng)), ContractViolation);
}

}  // namespace
}  // namespace memlp
