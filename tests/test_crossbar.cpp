// Tests for the crossbar array simulator: mapping fidelity, analog MVM and
// solve, partial updates, variation behaviour, and operation accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "crossbar/crossbar.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"

namespace memlp::xbar {
namespace {

CrossbarConfig ideal_config() {
  CrossbarConfig config;
  config.variation = mem::VariationModel::none();
  config.conductance_levels = 1 << 20;  // essentially continuous writes
  config.io_bits = 0;                   // ideal I/O
  return config;
}

Matrix random_nonneg(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(0.0, 2.0);
  return m;
}

TEST(Crossbar, RejectsNegativeMatrix) {
  Crossbar xbar(ideal_config(), Rng(1));
  Matrix m{{1.0, -0.5}, {0.0, 2.0}};
  EXPECT_THROW(xbar.program(m), ContractViolation);
}

TEST(Crossbar, RejectsOversizedMatrix) {
  CrossbarConfig config = ideal_config();
  config.max_dim = 4;
  Crossbar xbar(config, Rng(1));
  EXPECT_THROW(xbar.program(Matrix(5, 3, 1.0)), ContractViolation);
  EXPECT_NO_THROW(xbar.program(Matrix(4, 4, 1.0)));
}

TEST(Crossbar, EffectiveTracksIdealWithoutImperfections) {
  Rng rng(2);
  const Matrix a = random_nonneg(8, 6, rng);
  Crossbar xbar(ideal_config(), Rng(3));
  xbar.program(a);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(xbar.effective()(i, j), a(i, j), 1e-5 * (1 + a(i, j)));
}

TEST(Crossbar, WritePrecisionFloorsAccuracy) {
  // 256 conductance levels (8-bit writes) bound the per-cell mapping error
  // by half a level step of the full-scale.
  Rng rng(4);
  const Matrix a = random_nonneg(10, 10, rng);
  CrossbarConfig config = ideal_config();
  config.conductance_levels = 256;
  Crossbar xbar(config, Rng(5));
  xbar.program(a);
  const double step = a.max_abs() / 255.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_LE(std::abs(xbar.effective()(i, j) - a(i, j)), step);
}

TEST(Crossbar, MultiplyMatchesEffectiveMath) {
  Rng rng(6);
  const Matrix a = random_nonneg(7, 5, rng);
  Crossbar xbar(ideal_config(), Rng(7));
  xbar.program(a);
  Vec x(5);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Vec y = xbar.multiply(x);
  const Vec expected = gemv(xbar.effective(), x);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], expected[i], 1e-12);
}

TEST(Crossbar, MultiplyTransposedMatchesEffectiveMath) {
  Rng rng(8);
  const Matrix a = random_nonneg(4, 9, rng);
  Crossbar xbar(ideal_config(), Rng(9));
  xbar.program(a);
  Vec x(4);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Vec y = xbar.multiply_transposed(x);
  const Vec expected = gemv_transposed(xbar.effective(), x);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], expected[i], 1e-12);
}

TEST(Crossbar, EightBitIoBoundsMvmError) {
  Rng rng(10);
  const Matrix a = random_nonneg(12, 12, rng);
  CrossbarConfig config = ideal_config();
  config.io_bits = 8;
  Crossbar xbar(config, Rng(11));
  xbar.program(a);
  Vec x(12);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Vec y = xbar.multiply(x);
  const Vec exact = gemv(xbar.effective(), x);
  // Input quantization error per element <= ||x||inf/254, amplified by row
  // sums; output adds <= ||y||inf/254.
  const double bound =
      a.inf_norm() * norm_inf(x) / 254.0 + norm_inf(exact) / 254.0 + 1e-9;
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_LE(std::abs(y[i] - exact[i]), bound);
}

TEST(Crossbar, SolveRoundTripsWithMultiply) {
  Rng rng(12);
  Matrix a = random_nonneg(6, 6, rng);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 6.0;  // well-conditioned
  Crossbar xbar(ideal_config(), Rng(13));
  xbar.program(a);
  Vec b(6);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x = xbar.solve(b);
  ASSERT_TRUE(x.has_value());
  const Vec back = gemv(xbar.effective(), *x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(Crossbar, SolveRequiresSquare) {
  Crossbar xbar(ideal_config(), Rng(14));
  xbar.program(Matrix(3, 4, 1.0));
  EXPECT_THROW((void)xbar.solve(Vec(3, 1.0)), ContractViolation);
}

TEST(Crossbar, SolveReportsSingularArray) {
  Crossbar xbar(ideal_config(), Rng(15));
  // Two identical rows: singular regardless of mapping.
  Matrix a{{1.0, 2.0}, {1.0, 2.0}};
  xbar.program(a);
  EXPECT_FALSE(xbar.solve(Vec{1.0, 1.0}).has_value());
}

TEST(Crossbar, UpdateBlockRewritesOnlyChangedCells) {
  Rng rng(16);
  const Matrix a = random_nonneg(8, 8, rng);
  CrossbarConfig config = ideal_config();
  config.conductance_levels = 256;
  Crossbar xbar(config, Rng(17));
  xbar.program(a);
  xbar.reset_stats();

  // Re-writing the same values: no level changes, no cells written.
  xbar.update_block(0, 0, a.block(0, 0, 4, 4));
  EXPECT_EQ(xbar.stats().cells_written, 0u);

  // Changing one cell by a large amount writes exactly one cell.
  Matrix cell(1, 1);
  cell(0, 0) = a(2, 3) < 1.0 ? 1.9 : 0.05;
  xbar.update_block(2, 3, cell);
  EXPECT_EQ(xbar.stats().cells_written, 1u);
  EXPECT_GT(xbar.stats().write_pulses, 0u);
}

TEST(Crossbar, ExceedingFullScaleForcesReprogram) {
  Rng rng(18);
  const Matrix a = random_nonneg(5, 5, rng);
  Crossbar xbar(ideal_config(), Rng(19));
  xbar.program(a);
  const auto programs_before = xbar.stats().full_programs;
  Matrix cell(1, 1);
  cell(0, 0) = a.max_abs() * 10.0;
  xbar.update_block(1, 1, cell);
  EXPECT_EQ(xbar.stats().full_programs, programs_before + 1);
  EXPECT_NEAR(xbar.effective()(1, 1), cell(0, 0), 1e-4 * cell(0, 0));
}

TEST(Crossbar, FullScaleHintAvoidsReprogram) {
  Rng rng(20);
  const Matrix a = random_nonneg(5, 5, rng);
  Crossbar xbar(ideal_config(), Rng(21));
  xbar.program(a, 10.0 * a.max_abs());
  const auto programs_before = xbar.stats().full_programs;
  Matrix cell(1, 1);
  cell(0, 0) = a.max_abs() * 5.0;
  xbar.update_block(1, 1, cell);
  EXPECT_EQ(xbar.stats().full_programs, programs_before);
}

TEST(Crossbar, VariationPerturbsWithinEq18Bounds) {
  Rng rng(22);
  const Matrix a = random_nonneg(16, 16, rng);
  CrossbarConfig config = ideal_config();
  config.variation = mem::VariationModel::uniform(0.10);
  Crossbar xbar(config, Rng(23));
  xbar.program(a);
  double worst_rel = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) < 0.05) continue;  // skip near-zero cells
      const double rel = std::abs(xbar.effective()(i, j) - a(i, j)) / a(i, j);
      // Conductance variation of 10% translates to ~10% logical variation
      // (plus a small g_min offset effect).
      EXPECT_LE(rel, 0.115);
      worst_rel = std::max(worst_rel, rel);
    }
  EXPECT_GT(worst_rel, 0.01);  // variation is actually present
}

TEST(Crossbar, ReprogramRedrawsVariation) {
  Rng rng(24);
  const Matrix a = random_nonneg(6, 6, rng);
  CrossbarConfig config = ideal_config();
  config.variation = mem::VariationModel::uniform(0.10);
  Crossbar xbar(config, Rng(25));
  xbar.program(a);
  const Matrix first = xbar.effective();
  xbar.program(a);  // the paper's re-solve scheme relies on fresh draws
  EXPECT_NE(xbar.effective(), first);
}

TEST(Crossbar, SenseDividerAttenuatesWhenUncompensated) {
  Rng rng(26);
  const Matrix a = random_nonneg(4, 4, rng);
  CrossbarConfig config = ideal_config();
  config.compensate_sense_divider = false;
  Crossbar xbar(config, Rng(27));
  xbar.program(a);
  Vec x(4, 1.0);
  const Vec attenuated = xbar.multiply(x);
  const Vec exact = gemv(xbar.effective(), x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(std::abs(attenuated[i]), std::abs(exact[i]) + 1e-15);
  }
}

TEST(Crossbar, StatsCountOperations) {
  Rng rng(28);
  Matrix a = random_nonneg(5, 5, rng);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 5.0;
  Crossbar xbar(ideal_config(), Rng(29));
  xbar.program(a);
  EXPECT_EQ(xbar.stats().full_programs, 1u);
  (void)xbar.multiply(Vec(5, 1.0));
  (void)xbar.multiply(Vec(5, 0.5));
  (void)xbar.solve(Vec(5, 1.0));
  EXPECT_EQ(xbar.stats().mvm_ops, 2u);
  EXPECT_EQ(xbar.stats().solve_ops, 1u);
  xbar.reset_stats();
  EXPECT_EQ(xbar.stats().mvm_ops, 0u);
}

TEST(Crossbar, IrDropDegradesFarCells) {
  CrossbarConfig config = ideal_config();
  config.line_resistance_ohm = 2.0;
  Crossbar xbar(config, Rng(40));
  xbar.program(Matrix(16, 16, 1.0));
  // Every cell reads low; the far corner reads lowest.
  EXPECT_LT(xbar.effective()(0, 0), 1.0);
  EXPECT_LT(xbar.effective()(15, 15), xbar.effective()(0, 0));
  // Monotone along a row.
  for (std::size_t j = 1; j < 16; ++j)
    EXPECT_LE(xbar.effective()(0, j), xbar.effective()(0, j - 1) + 1e-12);
}

TEST(Crossbar, ZeroLineResistanceIsIdeal) {
  CrossbarConfig config = ideal_config();
  config.line_resistance_ohm = 0.0;
  Crossbar xbar(config, Rng(41));
  xbar.program(Matrix(8, 8, 1.0));
  EXPECT_NEAR(xbar.effective()(7, 7), 1.0, 1e-5);
}

TEST(Crossbar, SparseProgramSkipsStructuralZeros) {
  Matrix a(10, 10);
  a(2, 3) = 1.0;
  a(7, 1) = 0.5;
  Crossbar xbar(ideal_config(), Rng(42));
  xbar.program(a);
  EXPECT_EQ(xbar.stats().cells_written, 2u);  // only the nonzeros
  // A reprogram that zeroes an occupied cell must write (erase) it.
  Matrix b(10, 10);
  b(7, 1) = 0.5;
  xbar.program(b);
  // cell (2,3) erased + cell (7,1) force-rewritten.
  EXPECT_EQ(xbar.stats().cells_written, 4u);
  EXPECT_EQ(xbar.effective()(2, 3), 0.0);
}

TEST(Crossbar, IoBoundarySelectsConversions) {
  Rng rng(50);
  const Matrix a = random_nonneg(10, 10, rng);
  CrossbarConfig config = ideal_config();
  config.io_bits = 4;  // coarse converter makes the difference visible
  Crossbar xbar(config, Rng(51));
  xbar.program(a);
  Vec x(10);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  const Vec exact = gemv(xbar.effective(), x);
  const Vec none = xbar.multiply(x, Crossbar::IoBoundary::kNone);
  const Vec both = xbar.multiply(x, Crossbar::IoBoundary::kBoth);
  // kNone is the pure analog result.
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(none[i], exact[i], 1e-12);
  // kBoth differs through the coarse DAC/ADC.
  double delta = 0.0;
  for (std::size_t i = 0; i < 10; ++i) delta += std::abs(both[i] - exact[i]);
  EXPECT_GT(delta, 0.0);

  // Input-only and output-only land between the two extremes.
  const Vec in_only = xbar.multiply(x, Crossbar::IoBoundary::kInputOnly);
  const Vec quantized_input = Quantizer(4).quantized(x);
  const Vec expected_in = gemv(xbar.effective(), quantized_input);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(in_only[i], expected_in[i], 1e-12);
}

TEST(Crossbar, SolveIoBoundary) {
  Rng rng(52);
  Matrix a = random_nonneg(6, 6, rng);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 6.0;
  CrossbarConfig config = ideal_config();
  config.io_bits = 4;
  Crossbar xbar(config, Rng(53));
  xbar.program(a);
  Vec b(6);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto analog = xbar.solve(b, Crossbar::IoBoundary::kNone);
  ASSERT_TRUE(analog.has_value());
  const Vec back = gemv(xbar.effective(), *analog);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(CrossbarConfig, ValidatesParameters) {
  CrossbarConfig config;
  config.conductance_levels = 1;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  config.sense_conductance = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  config.io_bits = 99;
  EXPECT_THROW(config.validate(), ConfigError);
}

// Pins the half-select disturb contract of update_block's two paths (§3.3):
// incremental in-range writes stress the written cell's row/column
// neighbours, while the full-scale re-map path (fallback to program()) is
// exempt — the erase-all re-program force-writes every occupied cell, so any
// disturb inflicted mid-sequence is overwritten before the call returns.
TEST(Crossbar, UpdateBlockDisturbOnlyOnTheIncrementalPath) {
  CrossbarConfig config = ideal_config();  // exact writes isolate the disturb
  config.write_scheme.half_select_disturb = 1e-3;
  Crossbar xbar(config, Rng(50));
  Rng data_rng(51);
  const Matrix a = random_nonneg(6, 6, data_rng);
  xbar.program(a);

  const auto max_deviation_from = [&](const Matrix& ideal) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ideal.rows(); ++i)
      for (std::size_t j = 0; j < ideal.cols(); ++j)
        worst = std::max(worst,
                         std::abs(xbar.effective()(i, j) - ideal(i, j)));
    return worst;
  };
  // Freshly programmed: only conductance quantization (~1e-5), no disturb.
  EXPECT_LT(max_deviation_from(a), 1e-4);

  // Incremental path: an in-range cell write leaves its row/column
  // neighbours measurably off their ideal values.
  Matrix ideal_after = a;
  ideal_after(2, 3) = 0.5;
  xbar.update_cell(2, 3, 0.5);
  EXPECT_GT(max_deviation_from(ideal_after), 1e-4);
  // A cell sharing neither the row nor the column keeps its exact level.
  EXPECT_NEAR(xbar.effective()(0, 0), a(0, 0), 1e-4);

  // Full-scale re-map path: a value beyond the mapped full scale forces the
  // erase-all re-program, which also wipes the accumulated disturb — every
  // cell is back at its quantized ideal.
  const double overflow = 10.0 * a.max_abs();
  ideal_after(2, 3) = overflow;
  xbar.update_cell(2, 3, overflow);
  EXPECT_GT(xbar.stats().full_programs, 1u);
  EXPECT_LT(max_deviation_from(ideal_after), 1e-3);
  EXPECT_NEAR(xbar.effective()(2, 2), a(2, 2), 1e-4 * (1.0 + a(2, 2)));
}

TEST(CrossbarSettleCache, NoOpRewriteKeepsTheFactorization) {
  // Rewriting a cell to a value that quantizes to its current level is a
  // physical no-op; the cached factorization must survive it (the thrash
  // this PR removes: every solve used to refactor after ANY write).
  CrossbarConfig config = ideal_config();
  config.conductance_levels = 256;  // coarse levels: easy no-op writes
  Rng rng(21);
  const Matrix a = random_nonneg(6, 6, rng);
  Crossbar xbar(config, Rng(22));
  xbar.program(a);
  const Vec b{1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(xbar.solve(b).has_value());
  EXPECT_EQ(xbar.settle_cache_stats().full_factorizations, 1u);

  // A tiny perturbation rounds to the same 8-bit level: no write happens.
  const std::size_t written_before = xbar.stats().cells_written;
  xbar.update_cell(2, 2, a(2, 2) * (1.0 + 1e-9));
  ASSERT_EQ(xbar.stats().cells_written, written_before);
  ASSERT_TRUE(xbar.solve(b).has_value());
  EXPECT_EQ(xbar.settle_cache_stats().full_factorizations, 1u);
  EXPECT_GE(xbar.settle_cache_stats().prepare_hits, 1u);
}

TEST(CrossbarSettleCache, RealWriteInvalidatesTheFactorization) {
  Rng rng(23);
  const Matrix a = random_nonneg(6, 6, rng);
  Crossbar xbar(ideal_config(), Rng(24));
  xbar.program(a);
  const Vec b{1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(xbar.solve(b).has_value());
  EXPECT_EQ(xbar.settle_cache_stats().full_factorizations, 1u);

  xbar.update_cell(1, 4, a(1, 4) + 0.5);  // genuinely new level
  const auto x = xbar.solve(b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(xbar.settle_cache_stats().full_factorizations, 2u);
  // And the solve reflects the new matrix, not the stale factor.
  const Vec expected = LuFactorization(xbar.effective()).solve(b);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR((*x)[i], expected[i], 1e-12);
}

TEST(CrossbarSettleCache, BatchedUpdateMatchesSequentialUpdates) {
  // update_cells must be write-for-write identical to an update_cell loop
  // (same RNG draw order, same quantization, same remap points).
  Rng data_rng(28);
  const std::size_t n = 8;
  const Matrix a = random_nonneg(n, n, data_rng);
  CrossbarConfig config = ideal_config();
  config.variation = mem::VariationModel::uniform(0.05);
  Crossbar batched(config, Rng(29));
  Crossbar sequential(config, Rng(29));
  batched.program(a);
  sequential.program(a);

  std::vector<CellUpdate> updates;
  Rng value_rng(30);
  for (std::size_t j = 0; j < n; ++j)
    updates.push_back({j, j, value_rng.uniform(0.0, 3.0)});
  // One overflowing value exercises the mid-batch re-map path too.
  updates[5].value = 10.0 * a.max_abs();

  batched.update_cells(updates);
  for (const CellUpdate& u : updates)
    sequential.update_cell(u.row, u.col, u.value);

  ASSERT_EQ(batched.effective(), sequential.effective());
  EXPECT_EQ(batched.stats().cells_written, sequential.stats().cells_written);
  EXPECT_EQ(batched.stats().write_pulses, sequential.stats().write_pulses);
  EXPECT_EQ(batched.stats().full_programs, sequential.stats().full_programs);
}

TEST(CrossbarSettleCache, FailedSettleAccounting) {
  // A singular effective array fails to settle: the failure is counted,
  // but no solve op (and no settle energy) is charged.
  Crossbar xbar(ideal_config(), Rng(31));
  xbar.program(Matrix(4, 4, 1.0));  // rank-1: singular
  const Vec b{1, 1, 1, 1};
  EXPECT_FALSE(xbar.solve(b).has_value());
  EXPECT_EQ(xbar.stats().failed_settles, 1u);
  EXPECT_EQ(xbar.stats().solve_ops, 0u);

  // Writing the diagonal makes it solvable again; counters resume.
  std::vector<CellUpdate> diagonal;
  for (std::size_t j = 0; j < 4; ++j) diagonal.push_back({j, j, 5.0});
  xbar.update_cells(diagonal);
  EXPECT_TRUE(xbar.solve(b).has_value());
  EXPECT_EQ(xbar.stats().failed_settles, 1u);
  EXPECT_EQ(xbar.stats().solve_ops, 1u);
}

}  // namespace
}  // namespace memlp::xbar
