// Tests for the LP workload generators: advertised properties must hold.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "lp/generator.hpp"
#include "solvers/simplex.hpp"

namespace memlp::lp {
namespace {

TEST(Generator, PaperVariableRatio) {
  GeneratorOptions options;
  options.constraints = 256;
  EXPECT_EQ(options.effective_variables(), 85u);  // m/3
  options.constraints = 2;
  EXPECT_EQ(options.effective_variables(), 1u);  // floor at 1
  options.variables = 7;
  EXPECT_EQ(options.effective_variables(), 7u);  // explicit override
}

TEST(Generator, FeasibleShapesMatchOptions) {
  Rng rng(1);
  GeneratorOptions options;
  options.constraints = 24;
  const LinearProgram lp = random_feasible(options, rng);
  EXPECT_EQ(lp.num_constraints(), 24u);
  EXPECT_EQ(lp.num_variables(), 8u);
}

TEST(Generator, NegativeFractionControlsSigns) {
  Rng rng(2);
  GeneratorOptions options;
  options.constraints = 30;
  options.negative_fraction = 0.0;
  const LinearProgram nonneg = random_feasible(options, rng);
  EXPECT_TRUE(nonneg.a.to_dense().nonnegative());

  options.negative_fraction = 0.5;
  const LinearProgram mixed = random_feasible(options, rng);
  EXPECT_FALSE(mixed.a.to_dense().nonnegative());
}

TEST(Generator, SparsityProducesZeros) {
  Rng rng(3);
  GeneratorOptions options;
  options.constraints = 30;
  options.sparsity = 0.6;
  const LinearProgram lp = random_feasible(options, rng);
  const std::size_t cells = lp.a.rows() * lp.a.cols();
  const double fraction =
      static_cast<double>(cells - lp.a.nnz()) / static_cast<double>(cells);
  EXPECT_GT(fraction, 0.4);
}

// Property: generated feasible LPs are solvable to a finite optimum.
class FeasibleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FeasibleSweep, SimplexFindsFiniteOptimum) {
  Rng rng(100 + GetParam());
  GeneratorOptions options;
  options.constraints = GetParam();
  const LinearProgram lp = random_feasible(options, rng);
  const auto result = solvers::solve_simplex(lp);
  ASSERT_EQ(result.status, SolveStatus::kOptimal)
      << "m=" << GetParam() << ": " << to_string(result.status);
  EXPECT_TRUE(lp.satisfies_constraints(result.x, 1.0 + 1e-7));
  EXPECT_GT(result.objective, 0.0);  // c > 0 and interior x* > 0 exists
}

INSTANTIATE_TEST_SUITE_P(Sweep, FeasibleSweep,
                         ::testing::Values(4, 8, 16, 32, 64));

// Property: generated infeasible LPs are detected as such.
class InfeasibleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InfeasibleSweep, SimplexDetectsInfeasibility) {
  Rng rng(200 + GetParam());
  GeneratorOptions options;
  options.constraints = GetParam();
  const LinearProgram lp = random_infeasible(options, rng);
  EXPECT_EQ(solvers::solve_simplex(lp).status, SolveStatus::kInfeasible);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InfeasibleSweep,
                         ::testing::Values(4, 8, 16, 32, 64));

TEST(Generator, MaxFlowRoutingIsSolvableAndBounded) {
  Rng rng(5);
  const LinearProgram lp = max_flow_routing(2, 3, rng);
  // Conservation rows make A carry negative entries.
  EXPECT_FALSE(lp.a.to_dense().nonnegative());
  const auto result = solvers::solve_simplex(lp);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_GT(result.objective, 0.0);  // some flow can always be pushed
}

TEST(Generator, MaxFlowRespectsSourceCapacity) {
  Rng rng(6);
  const LinearProgram lp = max_flow_routing(3, 2, rng);
  const auto result = solvers::solve_simplex(lp);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  // Total flow cannot exceed the sum of source-edge capacities (the first
  // `width` capacity rows).
  double source_capacity = 0.0;
  for (std::size_t e = 0; e < 2; ++e) source_capacity += lp.b[e];
  EXPECT_LE(result.objective, source_capacity + 1e-9);
}

TEST(Generator, ProductionSchedulingIsNonNegativeLp) {
  Rng rng(7);
  const LinearProgram lp = production_scheduling(6, 4, rng);
  EXPECT_TRUE(lp.a.to_dense().nonnegative());
  EXPECT_EQ(lp.num_constraints(), 4u);
  EXPECT_EQ(lp.num_variables(), 6u);
  const auto result = solvers::solve_simplex(lp);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_GT(result.objective, 0.0);
}

TEST(Generator, TransportationIsFeasibleWithNegativeCost) {
  Rng rng(8);
  const LinearProgram lp = transportation(3, 4, rng);
  EXPECT_EQ(lp.num_constraints(), 7u);
  EXPECT_EQ(lp.num_variables(), 12u);
  const auto result = solvers::solve_simplex(lp);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  // Cost minimization recast as max of a negative objective.
  EXPECT_LT(result.objective, 0.0);
}

TEST(Generator, DeterministicGivenSeed) {
  GeneratorOptions options;
  options.constraints = 16;
  Rng rng_a(42);
  Rng rng_b(42);
  const LinearProgram a = random_feasible(options, rng_a);
  const LinearProgram b = random_feasible(options, rng_b);
  EXPECT_EQ(a.a, b.a);
  EXPECT_EQ(a.b, b.b);
  EXPECT_EQ(a.c, b.c);
}


TEST(Generator, DietIsFeasibleCostMinimization) {
  Rng rng(9);
  const LinearProgram lp = diet(8, 5, rng);
  EXPECT_EQ(lp.num_variables(), 8u);
  EXPECT_EQ(lp.num_constraints(), 13u);
  EXPECT_FALSE(lp.a.to_dense().nonnegative());  // nutrient-minimum rows are negative
  const auto result = solvers::solve_simplex(lp);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_LT(result.objective, 0.0);  // minimized cost, negated
  // Every portion respects its cap.
  for (double portion : result.x) {
    EXPECT_GE(portion, -1e-9);
    EXPECT_LE(portion, 10.0 + 1e-9);
  }
}

TEST(Generator, AssignmentRelaxationIsBoundedByTaskValues) {
  Rng rng(10);
  const LinearProgram lp = assignment(5, 3, rng);
  EXPECT_EQ(lp.num_variables(), 15u);
  EXPECT_EQ(lp.num_constraints(), 8u);
  const auto result = solvers::solve_simplex(lp);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  // At most one task per worker: objective <= sum of the best value per
  // worker; at least one worker per task keeps it >= something positive.
  EXPECT_GT(result.objective, 0.0);
  double per_worker_best_sum = 0.0;
  for (std::size_t w = 0; w < 5; ++w) {
    double best = 0.0;
    for (std::size_t t = 0; t < 3; ++t)
      best = std::max(best, lp.c[w * 3 + t]);
    per_worker_best_sum += best;
  }
  EXPECT_LE(result.objective, per_worker_best_sum + 1e-9);
}

TEST(Generator, AssignmentRequiresEnoughWorkers) {
  Rng rng(11);
  EXPECT_THROW((void)assignment(2, 3, rng), ContractViolation);
}

}  // namespace
}  // namespace memlp::lp
