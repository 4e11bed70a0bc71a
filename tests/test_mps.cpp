// MPS ingest: fixed- and free-format parsing, RANGES/BOUNDS canonicalization,
// typed parse errors with exact file:line locations, and the
// LinearProgram -> to_mps -> read_mps exact round trip over the generator
// family. Fixture files live under tests/data/mps/ (MEMLP_MPS_FIXTURES).
#include "lp/mps.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "lp/generator.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

namespace memlp::lp {
namespace {

std::string fixture(const std::string& name) {
  return std::string(MEMLP_MPS_FIXTURES) + "/" + name;
}

TEST(Mps, ReadsFixedFormatMinimizeFixture) {
  const MpsModel model = read_mps_file(fixture("textbook.mps"));
  EXPECT_EQ(model.name, "TEXTBOOK");
  EXPECT_EQ(model.objective_name, "COST");
  EXPECT_FALSE(model.maximize);
  ASSERT_EQ(model.problem.num_variables(), 2u);
  ASSERT_EQ(model.problem.num_constraints(), 3u);
  ASSERT_EQ(model.variable_names.size(), 2u);
  EXPECT_EQ(model.variable_names[0], "X1");
  // MINIMIZE negates c into canonical max form.
  EXPECT_DOUBLE_EQ(model.problem.c[0], 3.0);
  EXPECT_DOUBLE_EQ(model.problem.c[1], 5.0);
  EXPECT_DOUBLE_EQ(model.problem.a.at(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(model.problem.b[2], 18.0);

  const auto result = solvers::solve_simplex(model.problem);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.objective, 36.0, 1e-9);
  // The caller-facing objective restores the MPS file's MIN sense.
  EXPECT_NEAR(model.original_objective(result.x), -36.0, 1e-9);
}

TEST(Mps, ReadsFreeFormatWithRangesAndBounds) {
  const MpsModel model = read_mps_file(fixture("ranged.mps"));
  EXPECT_TRUE(model.maximize);
  ASSERT_EQ(model.problem.num_variables(), 2u);
  // GROW in [2,6] -> 2 rows, EROW in [1,3] -> 2 rows, UP x1 -> 1 row,
  // LO x2 0.5 -> 1 row; PL adds nothing.
  ASSERT_EQ(model.problem.num_constraints(), 6u);

  const auto result = solvers::solve_simplex(model.problem);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.objective, 9.0, 1e-9);
  EXPECT_NEAR(model.original_objective(result.x), 9.0, 1e-9);
  EXPECT_NEAR(result.x[0], 3.0, 1e-9);
  EXPECT_NEAR(result.x[1], 3.0, 1e-9);
}

TEST(Mps, ObjectiveRhsShiftsTheReportedObjective) {
  std::istringstream in(
      "NAME SHIFT\n"
      "ROWS\n"
      " N COST\n"
      " L R1\n"
      "COLUMNS\n"
      " X1 COST -1.0 R1 1.0\n"
      "RHS\n"
      " RHS R1 5.0 COST 2.5\n"
      "ENDATA\n");
  const MpsModel model = read_mps(in, "shift.mps");
  EXPECT_DOUBLE_EQ(model.objective_rhs, 2.5);
  const auto result = solvers::solve_simplex(model.problem);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  // min -x1 s.t. x1 <= 5: canonical max x1 -> 5, original -5 - 2.5.
  EXPECT_NEAR(model.original_objective(result.x), -7.5, 1e-9);
}

TEST(Mps, FortranExponentsAreAccepted) {
  std::istringstream in(
      "NAME FORTRAN\n"
      "ROWS\n"
      " N COST\n"
      " L R1\n"
      "COLUMNS\n"
      " X1 COST -1.0D0 R1 2.5D-1\n"
      "RHS\n"
      " RHS R1 1D1\n"
      "ENDATA\n");
  const MpsModel model = read_mps(in, "fortran.mps");
  EXPECT_DOUBLE_EQ(model.problem.a.at(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(model.problem.b[0], 10.0);
}

// --- typed errors anchored at exact file:line ---------------------------

template <typename Fn>
MpsError expect_mps_error(Fn&& fn) {
  try {
    fn();
  } catch (const MpsError& e) {
    return e;
  }
  ADD_FAILURE() << "expected MpsError";
  return MpsError(MpsError::Kind::kSyntax, "", 0, "");
}

TEST(MpsErrors, BadNumberNamesTheLine) {
  const MpsError e =
      expect_mps_error([] { read_mps_file(fixture("bad_number.mps")); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kNumber);
  EXPECT_EQ(e.line(), 6u);
  EXPECT_NE(std::string(e.what()).find("bad_number.mps:6"),
            std::string::npos);

  // Non-finite tokens parse as numbers under std::stod; the reader must
  // still reject them at file:line, in A (line 6) or in the RHS (line 8).
  for (const std::string token : {"nan", "inf", "-Infinity"}) {
    SCOPED_TRACE(token);
    for (const bool in_rhs : {false, true}) {
      const std::string a_value = in_rhs ? "1.0" : token;
      const std::string b_value = in_rhs ? token : "5.0";
      std::istringstream in("NAME NONFINITE\n"
                            "ROWS\n"
                            " N COST\n"
                            " L R1\n"
                            "COLUMNS\n"
                            " X1 COST -1.0 R1 " + a_value + "\n"
                            "RHS\n"
                            " RHS R1 " + b_value + "\n"
                            "ENDATA\n");
      const MpsError error =
          expect_mps_error([&] { (void)read_mps(in, "nonfinite.mps"); });
      EXPECT_EQ(error.kind(), MpsError::Kind::kNumber);
      const std::size_t line = in_rhs ? 8u : 6u;
      EXPECT_EQ(error.line(), line);
      EXPECT_NE(std::string(error.what()).find("nonfinite.mps:" +
                                               std::to_string(line)),
                std::string::npos);
    }
  }
}

TEST(MpsErrors, UnknownRowNamesTheLine) {
  const MpsError e =
      expect_mps_error([] { read_mps_file(fixture("bad_row.mps")); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kUnknownName);
  EXPECT_EQ(e.line(), 6u);
}

TEST(MpsErrors, UnknownSectionHeader) {
  const MpsError e =
      expect_mps_error([] { read_mps_file(fixture("bad_section.mps")); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kSection);
  EXPECT_EQ(e.line(), 2u);
}

TEST(MpsErrors, FreeBoundIsTypedUnsupported) {
  const MpsError e =
      expect_mps_error([] { read_mps_file(fixture("bad_free_bound.mps")); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kUnsupported);
  EXPECT_EQ(e.line(), 10u);
}

TEST(MpsErrors, IntegralityMarkersAreUnsupported) {
  std::istringstream in(
      "NAME MARKED\n"
      "ROWS\n"
      " N COST\n"
      " L R1\n"
      "COLUMNS\n"
      " MARKER 'MARKER' 'INTORG'\n"
      "ENDATA\n");
  const MpsError e =
      expect_mps_error([&] { read_mps(in, "marked.mps"); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kUnsupported);
  EXPECT_EQ(e.line(), 6u);
}

TEST(MpsErrors, MissingObjectiveRow) {
  std::istringstream in(
      "NAME NOOBJ\n"
      "ROWS\n"
      " L R1\n"
      "COLUMNS\n"
      " X1 R1 1.0\n"
      "ENDATA\n");
  const MpsError e = expect_mps_error([&] { read_mps(in, "noobj.mps"); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kSection);
}

// TextFormat: properties every text problem file must keep, whatever its
// syntax. An LP with no constraint rows is rejected with a typed error.
TEST(TextFormat, RejectsEmptyConstraintSet) {
  std::istringstream in(
      "NAME NOROWS\n"
      "ROWS\n"
      " N COST\n"
      "COLUMNS\n"
      " X1 COST 1.0\n"
      "ENDATA\n");
  const MpsError e = expect_mps_error([&] { read_mps(in, "norows.mps"); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kSection);
  EXPECT_NE(std::string(e.what()).find("no constraint rows"),
            std::string::npos);
}

TEST(MpsErrors, DataLineOutsideSection) {
  std::istringstream in(
      "NAME STRAY\n"
      " X1 COST 1.0\n"
      "ENDATA\n");
  const MpsError e = expect_mps_error([&] { read_mps(in, "stray.mps"); });
  EXPECT_EQ(e.kind(), MpsError::Kind::kSection);
  EXPECT_EQ(e.line(), 2u);
}

// --- exact round trip over the generator family -------------------------

void expect_round_trip(const LinearProgram& problem) {
  const std::string text = to_mps(problem, "ROUNDTRIP");
  std::istringstream in(text);
  const MpsModel model = read_mps(in, "roundtrip.mps");
  EXPECT_TRUE(model.maximize);  // canonical form is max
  ASSERT_EQ(model.problem.num_constraints(), problem.num_constraints());
  ASSERT_EQ(model.problem.num_variables(), problem.num_variables());
  // CSR canonical form makes the comparison exact structural equality.
  EXPECT_TRUE(model.problem.a == problem.a);
  EXPECT_EQ(model.problem.b, problem.b);
  EXPECT_EQ(model.problem.c, problem.c);
}

TEST(MpsRoundTrip, RandomFeasible) {
  Rng rng(7);
  GeneratorOptions options;
  options.constraints = 12;
  options.sparsity = 0.5;
  expect_round_trip(random_feasible(options, rng));
}

// Negative and fractional values survive the text round trip exactly, in
// A, b and c.
TEST(TextFormat, PreservesNegativeAndFractionalValues) {
  LinearProgram signs;
  signs.a = Matrix{{-1.5, 0.25}, {1e-7, -3.14159265358979}};
  signs.b = {-2.5, 1e6};
  signs.c = {0.1, -0.2};
  expect_round_trip(signs);
}

TEST(MpsRoundTrip, MultiCommodityFlow) {
  Rng rng(11);
  expect_round_trip(multi_commodity_flow(3, 3, 4, rng));
}

TEST(MpsRoundTrip, BlockDiagonal) {
  Rng rng(13);
  expect_round_trip(block_diagonal(4, 6, 3, rng));
}

TEST(MpsRoundTrip, Banded) {
  Rng rng(17);
  expect_round_trip(banded(24, 2, rng));
}

}  // namespace
}  // namespace memlp::lp
