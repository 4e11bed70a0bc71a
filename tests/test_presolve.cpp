// Tests for the LP presolve reductions.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/sparse.hpp"
#include "lp/generator.hpp"
#include "lp/presolve.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

namespace memlp::lp {
namespace {

TEST(Presolve, DropsRedundantZeroRow) {
  LinearProgram problem;
  problem.a = Matrix{{1, 2}, {0, 0}, {3, 1}};
  problem.b = {4, 5, 6};  // 0 <= 5 is redundant
  problem.c = {1, 1};
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_EQ(result.reduced.num_constraints(), 2u);
  EXPECT_EQ(result.removed_rows(problem), 1u);
}

TEST(Presolve, ZeroRowWithNegativeRhsIsInfeasible) {
  LinearProgram problem;
  problem.a = Matrix{{1, 2}, {0, 0}};
  problem.b = {4, -1};  // 0 <= -1: contradiction
  problem.c = {1, 1};
  EXPECT_EQ(presolve(problem).outcome, PresolveResult::Outcome::kInfeasible);
}

TEST(Presolve, DuplicateRowsKeepTighterBound) {
  LinearProgram problem;
  problem.a = Matrix{{1, 1}, {1, 1}, {2, 0}};
  problem.b = {10, 4, 6};  // x1+x2 <= 4 dominates <= 10
  problem.c = {1, 1};
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_EQ(result.reduced.num_constraints(), 2u);
  // The kept duplicate carries b = 4.
  bool found_tight = false;
  for (double b : result.reduced.b)
    if (b == 4.0) found_tight = true;
  EXPECT_TRUE(found_tight);
}

TEST(Presolve, EmptyColumnWithPositiveProfitIsUnbounded) {
  LinearProgram problem;
  problem.a = Matrix{{1, 0}, {2, 0}};
  problem.b = {4, 6};
  problem.c = {1, 3};  // x2 unconstrained with c2 > 0
  EXPECT_EQ(presolve(problem).outcome, PresolveResult::Outcome::kUnbounded);
}

TEST(Presolve, EmptyColumnWithNonPositiveProfitIsDropped) {
  LinearProgram problem;
  problem.a = Matrix{{1, 0}, {2, 0}};
  problem.b = {4, 6};
  problem.c = {1, -3};
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_EQ(result.reduced.num_variables(), 1u);
  // Restoration puts the dropped variable back at zero.
  const Vec x = result.restore(Vec{2.0}, 2);
  EXPECT_EQ(x, (Vec{2.0, 0.0}));
}

TEST(Presolve, DuplicateTripletEntriesAreSummedBeforeReduction) {
  // Coordinate input with repeated (0,0) entries cancelling to zero: the
  // canonical CSR form drops the entry, which empties row 0, which presolve
  // then removes as redundant (b >= 0).
  LinearProgram problem;
  problem.a = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, -1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  problem.b = {3.0, 4.0};
  problem.c = {1.0, 1.0};
  EXPECT_EQ(problem.a.nnz(), 2u);  // the cancelled duplicate is not stored
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_EQ(result.removed_rows(problem), 1u);
  EXPECT_EQ(result.kept_rows, (std::vector<std::size_t>{1}));
}

TEST(Presolve, DuplicateTripletsAccumulateIntoOneEntry) {
  // Repeated coordinates that do NOT cancel must sum into a single stored
  // entry, and presolve must act on the summed value.
  LinearProgram problem;
  problem.a = CsrMatrix::from_triplets(
      2, 2, {{0, 1, 0.5}, {0, 1, 1.5}, {1, 0, 1.0}, {1, 1, 1.0}});
  problem.b = {0.0, 4.0};
  problem.c = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(problem.a.at(0, 1), 2.0);
  // Row 0 is the singleton 2*x2 <= 0: x2 is fixed at zero and eliminated.
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_EQ(result.kept_columns, (std::vector<std::size_t>{0}));
  EXPECT_EQ(result.removed_rows(problem), 1u);
}

TEST(Presolve, FixedVariableEliminationCascades) {
  // Singleton row fixes x3 = 0; eliminating that column empties row 2,
  // which the next fixed-point pass drops as well.
  LinearProgram problem;
  problem.a = Matrix{{1, 1, 0}, {0, 0, 2}, {0, 0, 5}};
  problem.b = {4, 0, 3};
  problem.c = {1, 1, 1};
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_EQ(result.kept_rows, (std::vector<std::size_t>{0}));
  EXPECT_EQ(result.kept_columns, (std::vector<std::size_t>{0, 1}));
  const Vec x = result.restore(Vec{2.0, 2.0}, 3);
  EXPECT_EQ(x, (Vec{2.0, 2.0, 0.0}));
}

TEST(Presolve, SingletonRowWithNegativeRhsIsInfeasible) {
  LinearProgram problem;
  problem.a = Matrix{{1, 0}, {0, 3}};
  problem.b = {4, -1};  // 3*x2 <= -1 with x2 >= 0: contradiction
  problem.c = {1, 1};
  EXPECT_EQ(presolve(problem).outcome, PresolveResult::Outcome::kInfeasible);
}

TEST(Presolve, ReducedMatrixIsCanonicalCsr) {
  // Whatever the input pattern (stored zeros, summed duplicates, dropped
  // rows/columns), the reduced matrix must round-trip through its dense
  // view unchanged — the defining property of canonical CSR form (sorted
  // columns, no stored zeros, duplicates merged).
  LinearProgram problem;
  problem.a = CsrMatrix::from_triplets(
      3, 3, {{0, 2, 1.0}, {0, 0, 2.0}, {1, 1, 1.0}, {1, 1, -1.0},
             {2, 0, 1.0}, {2, 2, 3.0}});
  problem.b = {5.0, 2.0, 6.0};
  problem.c = {1.0, -1.0, 1.0};
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  const CsrMatrix& reduced = result.reduced.a;
  EXPECT_EQ(reduced, CsrMatrix::from_dense(reduced.to_dense()));
  // Column 1 died (its only entries cancelled, and c[1] < 0); row 1
  // emptied and was dropped.
  EXPECT_EQ(result.kept_columns, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(result.kept_rows, (std::vector<std::size_t>{0, 2}));
}

TEST(Presolve, CleanProblemIsUntouched) {
  Rng rng(1);
  GeneratorOptions options;
  options.constraints = 16;
  const auto problem = random_feasible(options, rng);
  const auto result = presolve(problem);
  ASSERT_EQ(result.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_EQ(result.reduced.a, problem.a);
  EXPECT_EQ(result.removed_rows(problem), 0u);
  EXPECT_EQ(result.removed_columns(problem), 0u);
}

// Property: presolve + solve + restore == direct solve.
class PresolveEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PresolveEquivalence, ObjectiveIsPreserved) {
  Rng rng(800 + GetParam());
  GeneratorOptions options;
  options.constraints = GetParam();
  options.sparsity = 0.4;
  LinearProgram problem = random_feasible(options, rng);
  // Inject removable structure: a zero row, a duplicate row, a dead column.
  const std::size_t m = problem.num_constraints();
  Matrix a = problem.a.to_dense();
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    a(m - 1, j) = 0.0;                           // zero row
    a(m - 2, j) = a(0, j);                       // duplicate of row 0
  }
  problem.b[m - 1] = 1.0;
  problem.b[m - 2] = problem.b[0] + 1.0;         // looser duplicate
  const std::size_t dead = problem.num_variables() - 1;
  for (std::size_t i = 0; i < m; ++i) a(i, dead) = 0.0;
  problem.a = std::move(a);
  problem.c[dead] = -1.0;

  const auto direct = solvers::solve_simplex(problem);
  ASSERT_EQ(direct.status, SolveStatus::kOptimal);

  const auto pre = presolve(problem);
  ASSERT_EQ(pre.outcome, PresolveResult::Outcome::kReduced);
  EXPECT_GE(pre.removed_rows(problem), 2u);
  EXPECT_GE(pre.removed_columns(problem), 1u);
  const auto reduced_solution = solvers::solve_simplex(pre.reduced);
  ASSERT_EQ(reduced_solution.status, SolveStatus::kOptimal);
  const Vec x =
      pre.restore(reduced_solution.x, problem.num_variables());
  EXPECT_NEAR(problem.objective(x), direct.objective,
              1e-7 * (1.0 + std::abs(direct.objective)));
  EXPECT_TRUE(problem.satisfies_constraints(x, 1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PresolveEquivalence,
                         ::testing::Values(6, 12, 24, 48));

}  // namespace
}  // namespace memlp::lp
