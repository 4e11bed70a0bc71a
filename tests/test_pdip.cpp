// Tests for the software PDIP baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/pdip.hpp"
#include "lp/generator.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

namespace memlp::core {
namespace {

TEST(Pdip, TextbookProblem) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1, 0}, {0, 2}, {3, 2}};
  problem.b = {4, 12, 18};
  problem.c = {3, 5};
  const auto result = solve_pdip(problem);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(result.objective, 36.0, 1e-4);
  EXPECT_NEAR(result.x[0], 2.0, 1e-3);
  EXPECT_NEAR(result.x[1], 6.0, 1e-3);
}

TEST(Pdip, ReturnsInteriorDualCertificates) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1, 0}, {0, 2}, {3, 2}};
  problem.b = {4, 12, 18};
  problem.c = {3, 5};
  const auto result = solve_pdip(problem);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  // Strong duality at convergence: bᵀy ≈ cᵀx.
  double by = 0.0;
  for (std::size_t i = 0; i < 3; ++i) by += problem.b[i] * result.y[i];
  EXPECT_NEAR(by, result.objective, 1e-3);
  // All iterates stay non-negative.
  for (double v : result.x) EXPECT_GE(v, 0.0);
  for (double v : result.y) EXPECT_GE(v, 0.0);
  for (double v : result.w) EXPECT_GE(v, 0.0);
  for (double v : result.z) EXPECT_GE(v, 0.0);
}

TEST(Pdip, DetectsInfeasibility) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1.0}, {-1.0}};
  problem.b = {1.0, -2.0};
  problem.c = {1.0};
  const auto result = solve_pdip(problem);
  EXPECT_EQ(result.status, lp::SolveStatus::kInfeasible);
}

TEST(Pdip, DetectsUnbounded) {
  lp::LinearProgram problem;
  problem.a = Matrix{{1.0, -1.0}};
  problem.b = {1.0};
  problem.c = {1.0, 0.0};
  const auto result = solve_pdip(problem);
  EXPECT_EQ(result.status, lp::SolveStatus::kUnbounded);
}

TEST(Pdip, IterationCountIsModest) {
  Rng rng(1);
  lp::GeneratorOptions options;
  options.constraints = 32;
  const auto problem = lp::random_feasible(options, rng);
  const auto result = solve_pdip(problem);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(result.iterations, 100u);  // interior point converges fast
}

// Property: PDIP matches the simplex optimum on random feasible LPs.
class PdipVsSimplex : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PdipVsSimplex, ObjectivesAgree) {
  Rng rng(400 + GetParam());
  lp::GeneratorOptions options;
  options.constraints = GetParam();
  const auto problem = lp::random_feasible(options, rng);
  const auto reference = solvers::solve_simplex(problem);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  const auto result = solve_pdip(problem);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(result.objective, reference.objective), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PdipVsSimplex,
                         ::testing::Values(4, 8, 12, 16, 24, 32, 48));

// Property: PDIP detects infeasibility on generated infeasible LPs.
class PdipInfeasible : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PdipInfeasible, Detected) {
  Rng rng(500 + GetParam());
  lp::GeneratorOptions options;
  options.constraints = GetParam();
  const auto problem = lp::random_infeasible(options, rng);
  EXPECT_EQ(solve_pdip(problem).status, lp::SolveStatus::kInfeasible);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PdipInfeasible,
                         ::testing::Values(4, 8, 16, 32));

TEST(Pdip, SolvesDomainProblems) {
  Rng rng(2);
  const auto routing = lp::max_flow_routing(2, 2, rng);
  const auto scheduling = lp::production_scheduling(5, 3, rng);
  const auto reference_routing = solvers::solve_simplex(routing);
  const auto reference_scheduling = solvers::solve_simplex(scheduling);
  const auto pdip_routing = solve_pdip(routing);
  const auto pdip_scheduling = solve_pdip(scheduling);
  ASSERT_EQ(pdip_routing.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(pdip_scheduling.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(pdip_routing.objective,
                               reference_routing.objective),
            1e-3);
  EXPECT_LT(lp::relative_error(pdip_scheduling.objective,
                               reference_scheduling.objective),
            1e-3);
}

TEST(Pdip, RespectsIterationLimit) {
  Rng rng(3);
  lp::GeneratorOptions options;
  options.constraints = 16;
  const auto problem = lp::random_feasible(options, rng);
  PdipOptions solver_options;
  solver_options.max_iterations = 2;
  const auto result = solve_pdip(problem, solver_options);
  EXPECT_EQ(result.status, lp::SolveStatus::kIterationLimit);
  EXPECT_EQ(result.iterations, 2u);
}


// Mehrotra predictor-corrector (extension): same answers, fewer iterations.
class PredictorCorrectorSweep : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(PredictorCorrectorSweep, MatchesPlainRuleWithFewerIterations) {
  Rng rng(600 + GetParam());
  lp::GeneratorOptions options;
  options.constraints = GetParam();
  const auto problem = lp::random_feasible(options, rng);
  const auto reference = solvers::solve_simplex(problem);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);

  PdipOptions plain;
  const auto base = solve_pdip(problem, plain);
  ASSERT_EQ(base.status, lp::SolveStatus::kOptimal);

  PdipOptions mehrotra;
  mehrotra.predictor_corrector = true;
  const auto pc = solve_pdip(problem, mehrotra);
  ASSERT_EQ(pc.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(pc.objective, reference.objective), 1e-4);
  EXPECT_LE(pc.iterations, base.iterations);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PredictorCorrectorSweep,
                         ::testing::Values(8, 16, 32, 64));

TEST(Pdip, PredictorCorrectorDetectsInfeasibility) {
  Rng rng(4);
  lp::GeneratorOptions options;
  options.constraints = 16;
  const auto problem = lp::random_infeasible(options, rng);
  PdipOptions mehrotra;
  mehrotra.predictor_corrector = true;
  EXPECT_EQ(solve_pdip(problem, mehrotra).status,
            lp::SolveStatus::kInfeasible);
}

}  // namespace
}  // namespace memlp::core
