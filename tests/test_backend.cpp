// Tests for the analog backend (the one-tile monolithic crossbar vs the
// forced NoC grid) and the per-cell gain-ranging write mode.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/kkt.hpp"
#include "core/negfree.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "lp/generator.hpp"

namespace memlp::core {
namespace {

Matrix random_nonneg(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(0.0, 1.0);
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

BackendOptions ideal_options() {
  BackendOptions options;
  options.crossbar.variation = mem::VariationModel::none();
  options.crossbar.conductance_levels = 1 << 20;
  options.crossbar.io_bits = 0;
  return options;
}

// Without force_noc the system sits on one monolithic crossbar, whatever its
// size (tile_dim applies to the grid only): one tile, no NoC traffic, no
// summing amplifier, and its settles count as the crossbar's.
TEST(Backend, SelectsSingleCrossbarBySizeLimit) {
  BackendOptions options = ideal_options();
  options.tile_dim = 16;
  const auto single = make_backend(options, Rng(1));
  Rng rng(10);
  single->program(random_nonneg(40, rng), 0.0);
  (void)single->multiply(Vec(40, 1.0));
  ASSERT_TRUE(single->solve(Vec(40, 1.0)).has_value());
  const BackendStats stats = single->stats();
  EXPECT_EQ(stats.num_tiles, 1u);
  EXPECT_EQ(stats.zero_tiles, 0u);
  EXPECT_EQ(stats.xbar.mvm_ops, 1u);
  EXPECT_EQ(stats.xbar.solve_ops, 1u);
  EXPECT_EQ(stats.noc.transfers, 0u);
  EXPECT_EQ(stats.noc.global_settles, 0u);
  EXPECT_EQ(stats.amps.vector_ops, 0u);
}

// force_noc cuts the system into tile_dim tiles; a settle wires them into
// one composite network and counts as a global settle.
TEST(Backend, SelectsNocWhenDimExceedsLimit) {
  BackendOptions options = ideal_options();
  options.force_noc = true;
  options.tile_dim = 16;
  const auto grid = make_backend(options, Rng(2));
  Rng rng(20);
  grid->program(random_nonneg(40, rng), 0.0);
  ASSERT_TRUE(grid->solve(Vec(40, 1.0)).has_value());
  const BackendStats stats = grid->stats();
  EXPECT_EQ(stats.num_tiles, 9u);  // ceil(40 / 16) squared
  EXPECT_EQ(stats.noc.global_settles, 1u);
  EXPECT_GT(stats.noc.transfers, 0u);
  EXPECT_EQ(stats.xbar.solve_ops, 0u);
}

TEST(Backend, ForceNocOverridesSize) {
  BackendOptions options = ideal_options();
  options.force_noc = true;
  options.tile_dim = 8;
  const auto backend = make_backend(options, Rng(3));
  Rng rng(30);
  backend->program(random_nonneg(12, rng), 0.0);
  EXPECT_GT(backend->stats().num_tiles, 1u);
}

// The pivot plan given to program() reaches the settle factorization on
// both backends, and a full-scale re-map keeps it.
TEST(Backend, SettlesFollowThePivotPlan) {
  Rng rng(40);
  lp::GeneratorOptions gen;
  gen.constraints = 12;
  const auto problem = lp::random_feasible(gen, rng);
  const KktLayout layout{problem.num_variables(), problem.num_constraints()};
  const NegativeFreeSystem negfree(
      assemble_kkt(problem, PdipState::ones(layout.n, layout.m)));
  const std::size_t dim = negfree.dim();
  Vec b(dim);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const Vec expected = lu_solve(negfree.matrix(), b);

  BackendOptions tiled_options = ideal_options();
  tiled_options.force_noc = true;
  tiled_options.tile_dim = 16;
  for (const BackendOptions& options : {ideal_options(), tiled_options}) {
    const auto backend = make_backend(options, Rng(41));
    backend->program(negfree.matrix(), 0.0,
                     newton_pivot_plan(layout, negfree));
    EXPECT_EQ(backend->settle_factor(), nullptr);
    const auto x = backend->solve(b);
    ASSERT_TRUE(x.has_value());
    ASSERT_NE(backend->settle_factor(), nullptr);
    EXPECT_LT(backend->settle_factor()->front_dim(), dim / 2);
    for (std::size_t i = 0; i < dim; ++i)
      EXPECT_NEAR((*x)[i], expected[i], 1e-4 * (1.0 + std::abs(expected[i])));
  }

  // A write above the mapping full-scale re-programs the single crossbar;
  // its settles keep the plan.
  const auto single = make_backend(ideal_options(), Rng(42));
  single->program(negfree.matrix(), 0.0, newton_pivot_plan(layout, negfree));
  single->update_cells(std::array{xbar::CellUpdate{
      layout.row_xz(), layout.col_x(), 4.0 * negfree.matrix().max_abs()}});
  ASSERT_TRUE(single->solve(b).has_value());
  EXPECT_LT(single->settle_factor()->front_dim(), dim / 2);
}

TEST(Backend, SingleAndTiledComputeTheSameMath) {
  Rng rng(4);
  const std::size_t dim = 20;
  const Matrix a = random_nonneg(dim, rng);
  Vec x(dim);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  const auto single = make_backend(ideal_options(), Rng(5));
  BackendOptions tiled_options = ideal_options();
  tiled_options.force_noc = true;
  tiled_options.tile_dim = 7;
  const auto tiled = make_backend(tiled_options, Rng(5));

  single->program(a, 0.0);
  tiled->program(a, 0.0);
  const Vec y_single = single->multiply(x);
  const Vec y_tiled = tiled->multiply(x);
  for (std::size_t i = 0; i < dim; ++i)
    EXPECT_NEAR(y_single[i], y_tiled[i], 1e-4 * (1.0 + std::abs(y_single[i])));

  const auto s_single = single->solve(x);
  const auto s_tiled = tiled->solve(x);
  ASSERT_TRUE(s_single.has_value());
  ASSERT_TRUE(s_tiled.has_value());
  for (std::size_t i = 0; i < dim; ++i)
    EXPECT_NEAR((*s_single)[i], (*s_tiled)[i],
                1e-4 * (1.0 + std::abs((*s_single)[i])));
}

TEST(Backend, UpdateCellFlowsThroughBothKinds) {
  Rng rng(6);
  const std::size_t dim = 10;
  const Matrix a = random_nonneg(dim, rng);
  for (const bool force_noc : {false, true}) {
    BackendOptions options = ideal_options();
    options.force_noc = force_noc;
    options.tile_dim = 4;
    const auto backend = make_backend(options, Rng(7));
    backend->program(a, 2.0 * a.max_abs());
    backend->update_cells(std::array{xbar::CellUpdate{3, 3, a(3, 3) + 1.0}});
    Vec e(dim, 0.0);
    e[3] = 1.0;
    const Vec column = backend->multiply(e);
    EXPECT_NEAR(column[3], a(3, 3) + 1.0, 1e-4 * (a(3, 3) + 1.0));
  }
}

TEST(Backend, StatsAccumulateAndDiff) {
  const auto backend = make_backend(ideal_options(), Rng(8));
  Rng rng(9);
  backend->program(random_nonneg(8, rng), 0.0);
  const BackendStats after_program = backend->stats();
  EXPECT_EQ(after_program.xbar.full_programs, 1u);
  (void)backend->multiply(Vec(8, 1.0));
  const BackendStats total = backend->stats();
  const BackendStats delta = total.since(after_program);
  EXPECT_EQ(delta.xbar.mvm_ops, 1u);
  EXPECT_EQ(delta.xbar.cells_written, 0u);
}

// Per-cell gain ranging: relative precision across decades.
TEST(GainRanging, RepresentsWideDynamicRange) {
  xbar::CrossbarConfig config;
  config.variation = mem::VariationModel::none();
  config.io_bits = 0;
  config.per_cell_gain_ranging = true;
  xbar::Crossbar crossbar(config, Rng(10));
  Matrix a(2, 2);
  a(0, 0) = 1e-4;
  a(0, 1) = 1.0;
  a(1, 0) = 1e4;
  a(1, 1) = 0.0;
  crossbar.program(a);
  // Every cell is accurate to its own magnitude (256-level mantissa).
  EXPECT_NEAR(crossbar.effective()(0, 0), 1e-4, 1e-4 / 128);
  EXPECT_NEAR(crossbar.effective()(0, 1), 1.0, 1.0 / 128);
  EXPECT_NEAR(crossbar.effective()(1, 0), 1e4, 1e4 / 128);
  EXPECT_EQ(crossbar.effective()(1, 1), 0.0);
}

TEST(GainRanging, NoFullScaleReprogramOnLargeUpdates) {
  xbar::CrossbarConfig config;
  config.variation = mem::VariationModel::none();
  config.io_bits = 0;
  config.per_cell_gain_ranging = true;
  xbar::Crossbar crossbar(config, Rng(11));
  crossbar.program(Matrix(4, 4, 1.0));
  const auto programs_before = crossbar.stats().full_programs;
  // Far beyond the initial full scale.
  crossbar.update_cells(std::array{xbar::CellUpdate{0, 0, 1e6}});
  EXPECT_EQ(crossbar.stats().full_programs, programs_before);
  EXPECT_NEAR(crossbar.effective()(0, 0), 1e6, 1e6 / 128);
}

TEST(GainRanging, UnchangedValueIsNotRewritten) {
  xbar::CrossbarConfig config;
  config.variation = mem::VariationModel::uniform(0.10);
  config.io_bits = 0;
  config.per_cell_gain_ranging = true;
  xbar::Crossbar crossbar(config, Rng(12));
  crossbar.program(Matrix(3, 3, 0.5));
  const auto cells_before = crossbar.stats().cells_written;
  const double effective_before = crossbar.effective()(1, 1);
  crossbar.update_cells(std::array{xbar::CellUpdate{1, 1, 0.5}});
  EXPECT_EQ(crossbar.stats().cells_written, cells_before);
  EXPECT_EQ(crossbar.effective()(1, 1), effective_before);  // keeps its draw
}

}  // namespace
}  // namespace memlp::core
