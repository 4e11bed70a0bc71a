// Tests for XbarPdipSession: array reuse across solves sharing a constraint
// matrix (zero re-programming for new b/c).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/xbar_pdip.hpp"
#include "lp/generator.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

namespace memlp::core {
namespace {

XbarPdipOptions quiet_hardware() {
  XbarPdipOptions options;
  options.hardware.crossbar.variation = mem::VariationModel::uniform(0.05);
  options.seed = 21;
  return options;
}

TEST(Session, SecondSolveWithSameAProgramsNothing) {
  Rng rng(1);
  lp::GeneratorOptions generator;
  generator.constraints = 16;
  const auto problem = lp::random_feasible(generator, rng);

  XbarPdipSession session(quiet_hardware());
  const auto first = session.solve(problem);
  ASSERT_EQ(first.result.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(first.stats.programming.xbar.cells_written, 0u);

  // New b and c, same A: re-priced problem.
  lp::LinearProgram repriced = problem;
  for (double& v : repriced.b) v *= 1.2;
  for (double& v : repriced.c) v *= 0.7;
  const auto second = session.solve(repriced);
  ASSERT_EQ(second.result.status, lp::SolveStatus::kOptimal);
  // Zero whole-array programming: only O(N) diagonal rewrites happened.
  EXPECT_EQ(second.stats.programming.xbar.cells_written, 0u);
  EXPECT_EQ(second.stats.programming.xbar.full_programs, 0u);
  EXPECT_GT(second.stats.backend.xbar.cells_written, 0u);

  // And the answer matches the exact optimum of the new problem.
  const auto reference = solvers::solve_simplex(repriced);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(second.result.objective, reference.objective),
            0.10);
}

TEST(Session, ChangedAReprogramsTransparently) {
  Rng rng(2);
  lp::GeneratorOptions generator;
  generator.constraints = 12;
  const auto problem = lp::random_feasible(generator, rng);
  XbarPdipSession session(quiet_hardware());
  ASSERT_EQ(session.solve(problem).result.status,
            lp::SolveStatus::kOptimal);

  lp::LinearProgram changed = problem;
  Matrix changed_a = changed.a.to_dense();
  changed_a(0, 0) += 0.5;  // structural change
  changed.a = std::move(changed_a);
  const auto outcome = session.solve(changed);
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(outcome.stats.programming.xbar.full_programs, 0u);
  const auto reference = solvers::solve_simplex(changed);
  EXPECT_LT(lp::relative_error(outcome.result.objective, reference.objective),
            0.10);
}

TEST(Session, ChangedDimensionsRebuild) {
  Rng rng(3);
  lp::GeneratorOptions small;
  small.constraints = 8;
  lp::GeneratorOptions large;
  large.constraints = 16;
  XbarPdipSession session(quiet_hardware());
  const auto first = session.solve(lp::random_feasible(small, rng));
  const auto second = session.solve(lp::random_feasible(large, rng));
  ASSERT_EQ(first.result.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(second.result.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(second.stats.system_dim, first.stats.system_dim);
  EXPECT_GT(second.stats.programming.xbar.full_programs, 0u);
}

TEST(Session, MatchesOneShotSolverResults) {
  Rng rng(4);
  lp::GeneratorOptions generator;
  generator.constraints = 12;
  const auto problem = lp::random_feasible(generator, rng);
  XbarPdipSession session(quiet_hardware());
  const auto via_session = session.solve(problem);
  const auto one_shot = solve_xbar_pdip(problem, quiet_hardware());
  ASSERT_EQ(via_session.result.status, one_shot.result.status);
  EXPECT_DOUBLE_EQ(via_session.result.objective, one_shot.result.objective);
}

TEST(Session, ManyRepricingsStayAccurate) {
  // Rolling-horizon scenario: same network, drifting capacities/prices.
  Rng rng(5);
  lp::GeneratorOptions generator;
  generator.constraints = 16;
  lp::LinearProgram problem = lp::random_feasible(generator, rng);
  XbarPdipSession session(quiet_hardware());
  std::size_t programmed = 0;
  for (int round = 0; round < 6; ++round) {
    for (double& v : problem.b) v *= rng.uniform(0.95, 1.05);
    for (double& v : problem.c) v *= rng.uniform(0.95, 1.05);
    const auto outcome = session.solve(problem);
    programmed += outcome.stats.programming.xbar.full_programs;
    ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal)
        << "round " << round;
    const auto reference = solvers::solve_simplex(problem);
    EXPECT_LT(lp::relative_error(outcome.result.objective,
                                 reference.objective),
              0.10)
        << "round " << round;
  }
  // At most the first solve's programming (plus any retry reprograms).
  EXPECT_LE(programmed, 2u);
}

}  // namespace
}  // namespace memlp::core
