// Tests for the large-scale crossbar solver (Algorithm 2).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/ls_pdip.hpp"
#include "lp/generator.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

namespace memlp::core {
namespace {

LsPdipOptions ideal_hardware() {
  LsPdipOptions options;
  options.hardware.crossbar.variation = mem::VariationModel::none();
  options.hardware.crossbar.conductance_levels = 1 << 20;
  options.hardware.crossbar.io_bits = 0;
  return options;
}

LsPdipOptions paper_hardware(double variation) {
  LsPdipOptions options;
  if (variation > 0.0)
    options.hardware.crossbar.variation =
        mem::VariationModel::uniform(variation);
  else
    options.hardware.crossbar.variation = mem::VariationModel::none();
  return options;
}

TEST(BalancedM1, StructureFollowsEq16c) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1, -2}, {3, 4}, {5, 6}};  // m=3, n=2 (m > n: RU)
  problem.b = {1, 2, 3};
  problem.c = {1, 1};
  Rng rng(1);
  const Matrix m1 = build_balanced_m1(problem, 0.01, rng);
  ASSERT_EQ(m1.rows(), 5u);
  ASSERT_EQ(m1.cols(), 5u);
  // A block in place.
  EXPECT_DOUBLE_EQ(m1(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m1(0, 1), -2.0);
  // Aᵀ block in place.
  EXPECT_DOUBLE_EQ(m1(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(m1(4, 2), -2.0);
  // RU (m×m) filled with small positives; RL (n×n) left zero for m > n.
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_GT(m1(i, 2 + k), 0.0);
      EXPECT_LT(m1(i, 2 + k), 0.1);
    }
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t k = 0; k < 2; ++k) EXPECT_DOUBLE_EQ(m1(3 + j, k), 0.0);
}

TEST(BalancedM1, BothFillCoversBothBlocks) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1, 2}, {3, 4}};  // square (m = n): both are filled
  problem.b = {1, 2};
  problem.c = {1, 1};
  Rng rng(2);
  const Matrix m1 = build_balanced_m1(problem, 0.05, rng);
  EXPECT_GT(m1(0, 2), 0.0);  // RU
  EXPECT_GT(m1(2, 0), 0.0);  // RL
}

TEST(LsPdip, SolvesTextbookProblem) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1, 0}, {0, 2}, {3, 2}};
  problem.b = {4, 12, 18};
  problem.c = {3, 5};
  const auto outcome = solve_ls_pdip(problem, ideal_hardware());
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  // Algorithm 2 trades accuracy for scalability (§4.3: "acceptable
  // accuracy"); allow a few percent even on ideal hardware.
  EXPECT_LT(lp::relative_error(outcome.result.objective, 36.0), 0.05);
}

class LsAccuracySweep : public ::testing::TestWithParam<int> {};

TEST_P(LsAccuracySweep, WithinPaperAccuracyBand) {
  const double variation = GetParam() / 100.0;
  Rng rng(10);
  lp::GeneratorOptions generator;
  generator.constraints = 24;
  const auto problem = lp::random_feasible(generator, rng);
  const auto reference = solvers::solve_simplex(problem);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  auto options = paper_hardware(variation);
  options.seed = 99;
  const auto outcome = solve_ls_pdip(problem, options);
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal)
      << "variation " << variation;
  // Paper: 0.8%–8.5% relative error; margin for small sizes.
  EXPECT_LT(lp::relative_error(outcome.result.objective, reference.objective),
            0.15)
      << "variation " << variation;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LsAccuracySweep,
                         ::testing::Values(0, 5, 10, 20));

TEST(LsPdip, DetectsInfeasibility) {
  Rng rng(11);
  lp::GeneratorOptions generator;
  generator.constraints = 12;
  const auto problem = lp::random_infeasible(generator, rng);
  const auto outcome = solve_ls_pdip(problem, paper_hardware(0.10));
  EXPECT_EQ(outcome.result.status, lp::SolveStatus::kInfeasible);
}

TEST(LsPdip, M1IsProgrammedOncePerAttempt) {
  Rng rng(12);
  lp::GeneratorOptions generator;
  generator.constraints = 16;
  const auto problem = lp::random_feasible(generator, rng);
  const auto outcome = solve_ls_pdip(problem, paper_hardware(0.0));
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  // The default kStable recovery never reads M2, so only M1 is programmed:
  // once per attempt, and nothing else reprograms fully.
  EXPECT_EQ(outcome.stats.programming.xbar.full_programs,
            outcome.stats.attempts);
  EXPECT_EQ(outcome.stats.backend.xbar.full_programs,
            outcome.stats.attempts);
}

TEST(LsPdip, M2DiagonalRecoveryProgramsBothArrays) {
  Rng rng(12);
  lp::GeneratorOptions generator;
  generator.constraints = 16;
  const auto problem = lp::random_feasible(generator, rng);
  LsPdipOptions options = paper_hardware(0.0);
  options.recovery = RecoveryMode::kM2Diagonal;
  const auto outcome = solve_ls_pdip(problem, options);
  ASSERT_GE(outcome.stats.attempts, 1u);
  // The Eq. (16b) recovery settles on M2: M1 and M2 are both programmed
  // once per attempt.
  EXPECT_EQ(outcome.stats.programming.xbar.full_programs,
            2 * outcome.stats.attempts);
}

TEST(LsPdip, IterativeWritesAreOrderNPerIteration) {
  Rng rng(13);
  lp::GeneratorOptions generator;
  generator.constraints = 24;
  const auto problem = lp::random_feasible(generator, rng);
  const auto outcome = solve_ls_pdip(problem, paper_hardware(0.0));
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  const auto iterative =
      outcome.stats.backend.since(outcome.stats.programming);
  const std::size_t n_plus_m =
      problem.num_variables() + problem.num_constraints();
  // Only the n+m state-diagonal cells are rewritten per iteration (§3.5).
  EXPECT_LE(iterative.xbar.cells_written,
            outcome.stats.iterations * n_plus_m);
}

TEST(LsPdip, SmallerSystemThanAlgorithm1) {
  Rng rng(14);
  lp::GeneratorOptions generator;
  generator.constraints = 24;
  const auto problem = lp::random_feasible(generator, rng);
  const auto outcome = solve_ls_pdip(problem, ideal_hardware());
  // M1 dim <= (n+m) + (n+m) compensations, vs 2(n+m)+p for Algorithm 1.
  const std::size_t n_plus_m =
      problem.num_variables() + problem.num_constraints();
  EXPECT_LE(outcome.stats.system_dim, 2 * n_plus_m);
}

TEST(LsPdip, RetrySchemeIsBounded) {
  Rng rng(15);
  lp::GeneratorOptions generator;
  generator.constraints = 12;
  const auto problem = lp::random_feasible(generator, rng);
  LsPdipOptions options = paper_hardware(0.20);
  options.max_retries = 2;
  const auto outcome = solve_ls_pdip(problem, options);
  EXPECT_LE(outcome.stats.attempts, 3u);
}

TEST(LsPdip, DeterministicForFixedSeed) {
  Rng rng(16);
  lp::GeneratorOptions generator;
  generator.constraints = 12;
  const auto problem = lp::random_feasible(generator, rng);
  auto options = paper_hardware(0.10);
  options.seed = 321;
  const auto first = solve_ls_pdip(problem, options);
  const auto second = solve_ls_pdip(problem, options);
  EXPECT_EQ(first.result.status, second.result.status);
  EXPECT_DOUBLE_EQ(first.result.objective, second.result.objective);
}

TEST(LsPdip, NocBackendForLargeM1) {
  Rng rng(17);
  lp::GeneratorOptions generator;
  generator.constraints = 18;
  const auto problem = lp::random_feasible(generator, rng);
  auto options = ideal_hardware();
  options.hardware.force_noc = true;
  options.hardware.tile_dim = 12;
  const auto outcome = solve_ls_pdip(problem, options);
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(outcome.stats.backend.num_tiles, 1u);
}

TEST(LsPdip, RejectsInvalidTheta) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1.0}};
  problem.b = {1.0};
  problem.c = {1.0};
  LsPdipOptions options;
  options.theta = 1.5;
  EXPECT_THROW((void)solve_ls_pdip(problem, options), ContractViolation);
}

}  // namespace
}  // namespace memlp::core
