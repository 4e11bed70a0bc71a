// Tests for the tiled (NoC-coordinated) crossbar matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "noc/tiled.hpp"

namespace memlp::noc {
namespace {

TiledConfig ideal_tiled(std::size_t tile_dim,
                        TopologyKind kind = TopologyKind::kHierarchical) {
  TiledConfig config;
  config.tile_dim = tile_dim;
  config.topology = kind;
  config.xbar.variation = mem::VariationModel::none();
  config.xbar.conductance_levels = 1 << 20;
  config.xbar.io_bits = 0;
  return config;
}

Matrix random_nonneg(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(0.0, 2.0);
  return m;
}

/// The cells of `block` placed at (r0, c0), row by row, as one write batch.
std::vector<xbar::CellUpdate> block_cells(std::size_t r0, std::size_t c0,
                                          const Matrix& block) {
  std::vector<xbar::CellUpdate> cells;
  for (std::size_t i = 0; i < block.rows(); ++i)
    for (std::size_t j = 0; j < block.cols(); ++j)
      cells.push_back({r0 + i, c0 + j, block(i, j)});
  return cells;
}

TEST(Tiled, PartitionsIntoExpectedTileCount) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(1));
  tiled.program(Matrix(10, 7, 1.0));
  // rows: ceil(10/4)=3 blocks, cols: ceil(7/4)=2 blocks.
  EXPECT_EQ(tiled.num_tiles(), 6u);
  EXPECT_EQ(tiled.rows(), 10u);
  EXPECT_EQ(tiled.cols(), 7u);
}

TEST(Tiled, AssembledEffectiveMatchesIdeal) {
  Rng rng(2);
  const Matrix a = random_nonneg(9, 11, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(3));
  tiled.program(a);
  const Matrix effective = tiled.assemble_effective();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(effective(i, j), a(i, j), 1e-5 * (1 + a(i, j)));
}

TEST(Tiled, AssemblyIntoReusedStorageClearsZeroShards) {
  // A block-diagonal matrix on 4-wide tiles: the off-diagonal shards are
  // all-zero and hold no cells. Assembled into storage of the right shape
  // that holds other values, every entry of the result is the tiles'.
  Rng rng(4);
  Matrix a(8, 8);
  a.set_block(0, 0, random_nonneg(4, 4, rng));
  a.set_block(4, 4, random_nonneg(4, 4, rng));
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(5));
  tiled.program(a);
  Matrix reused(8, 8, -7.0);
  const double* storage = reused.data().data();
  tiled.fill_effective(reused);
  EXPECT_EQ(reused.data().data(), storage);
  EXPECT_EQ(reused, tiled.assemble_effective());
  EXPECT_EQ(reused(0, 4), 0.0);
  EXPECT_EQ(reused(7, 3), 0.0);
}

TEST(Tiled, MultiplyMatchesDenseMvm) {
  Rng rng(4);
  const Matrix a = random_nonneg(13, 9, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(5), Rng(5));
  tiled.program(a);
  Vec x(9);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Vec y = tiled.multiply(x);
  const Vec expected = gemv(tiled.assemble_effective(), x);
  ASSERT_EQ(y.size(), 13u);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], expected[i], 1e-10);
}

TEST(Tiled, CompositeSolveMatchesDenseSolve) {
  Rng rng(8);
  Matrix a = random_nonneg(10, 10, rng);
  for (std::size_t i = 0; i < 10; ++i) a(i, i) += 10.0;
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(9));
  tiled.program(a);
  Vec b(10);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x = tiled.solve(b);
  ASSERT_TRUE(x.has_value());
  const Vec expected = lu_solve(tiled.assemble_effective(), b);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR((*x)[i], expected[i], 1e-9);
  EXPECT_EQ(tiled.noc_stats().global_settles, 1u);
}

TEST(Tiled, UpdateBlockDispatchesAcrossTileBoundaries) {
  Rng rng(10);
  const Matrix a = random_nonneg(8, 8, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(11));
  tiled.program(a);
  // A block-shaped batch straddling all four tiles.
  tiled.update_cells(block_cells(2, 2, Matrix(4, 4, 1.7)));
  const Matrix effective = tiled.assemble_effective();
  for (std::size_t i = 2; i < 6; ++i)
    for (std::size_t j = 2; j < 6; ++j)
      EXPECT_NEAR(effective(i, j), 1.7, 1e-4);
  // Untouched corner survives.
  EXPECT_NEAR(effective(0, 0), a(0, 0), 1e-4 * (1 + a(0, 0)));
}

TEST(Tiled, BlockJacobiSolvesDominantSystem) {
  Rng rng(12);
  const std::size_t n = 12;
  Matrix a = random_nonneg(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0 * static_cast<double>(n);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(13));
  tiled.program(a);
  Vec b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto result = tiled.solve_block_jacobi(b);
  EXPECT_TRUE(result.converged);
  const Vec expected = lu_solve(tiled.assemble_effective(), b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(result.x[i], expected[i], 1e-6);
}

// Regression: the convergence residual is a controller-side decision and is
// computed against the effective matrix directly. Routing it through
// multiply() (as the old code did) pushes it across the ADC: with a coarse
// I/O boundary the quantization error of the readout dominates the true
// residual, the check can never observe convergence, and every sweep is
// charged a full extra MVM's worth of tile settles and NoC traffic.
TEST(Tiled, BlockJacobiConvergesDespiteCoarseIoBits) {
  Rng rng(16);
  const std::size_t n = 12;
  Matrix a = random_nonneg(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0 * static_cast<double>(n);
  TiledConfig config = ideal_tiled(4);
  config.xbar.io_bits = 4;  // 16 codes: a deliberately brutal ADC
  TiledCrossbarMatrix tiled(config, Rng(17));
  tiled.program(a);
  Vec b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  BlockSolveOptions options;
  options.tolerance = 5e-2;
  const auto result = tiled.solve_block_jacobi(b, options);
  ASSERT_TRUE(result.converged);
  const double threshold = options.tolerance * std::max(1.0, norm_inf(b));
  EXPECT_LE(result.residual_inf, threshold);

  // Exactly nb² settles per sweep (nb·(nb−1) off-diagonal MVMs + nb diagonal
  // solves) — the residual check adds none.
  const std::size_t nb = 3;  // ceil(12 / 4)
  EXPECT_EQ(tiled.noc_stats().tile_settles, result.sweeps * nb * nb);

  // The old multiply()-based readout of the same converged iterate is
  // quantization-dominated and sits above the threshold it must beat.
  const Vec quantized_readout = sub(tiled.multiply(result.x), b);
  EXPECT_GT(norm_inf(quantized_readout), threshold);
}

TEST(Tiled, BlockJacobiRequiresSquareGrid) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(14));
  tiled.program(Matrix(8, 8, 1.0));
  EXPECT_NO_THROW((void)tiled.solve_block_jacobi(Vec(8, 1.0)));
  TiledCrossbarMatrix rect(ideal_tiled(5), Rng(15));
  rect.program(Matrix(8, 6, 1.0));
  EXPECT_THROW((void)rect.solve_block_jacobi(Vec(8, 1.0)),
               ContractViolation);
}

TEST(Tiled, TransfersAreCharged) {
  Rng rng(16);
  const Matrix a = random_nonneg(8, 8, rng);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(17));
  tiled.program(a);
  tiled.reset_stats();
  (void)tiled.multiply(Vec(8, 1.0));
  const auto& stats = tiled.noc_stats();
  EXPECT_GT(stats.transfers, 0u);
  EXPECT_GT(stats.value_hops, 0u);
  EXPECT_EQ(stats.tile_settles, 4u);  // 2x2 grid of tiles
}

TEST(Tiled, MeshAndHierarchyAgreeFunctionally) {
  Rng rng(18);
  const Matrix a = random_nonneg(12, 12, rng);
  Vec x(12);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  TiledCrossbarMatrix hier(ideal_tiled(4, TopologyKind::kHierarchical),
                           Rng(19));
  TiledCrossbarMatrix mesh(ideal_tiled(4, TopologyKind::kMesh), Rng(19));
  hier.program(a);
  mesh.program(a);
  const Vec yh = hier.multiply(x);
  const Vec ym = mesh.multiply(x);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(yh[i], ym[i], 1e-9);
}

TEST(Tiled, RejectsNegativeAndZeroTileDim) {
  EXPECT_THROW(TiledCrossbarMatrix(TiledConfig{0, TopologyKind::kMesh, {}},
                                   Rng(20)),
               ConfigError);
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(21));
  EXPECT_THROW(tiled.program(Matrix{{-1.0}}), ContractViolation);
}

TEST(Tiled, CrossbarStatsAggregateOverTiles) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(22));
  tiled.program(Matrix(8, 8, 1.0));
  const auto stats = tiled.crossbar_stats();
  EXPECT_EQ(stats.full_programs, 4u);
  EXPECT_EQ(stats.cells_written, 64u);
}

TEST(Tiled, UpdateCellsMatchesPerCellBatches) {
  // One batch across tiles must produce the same effective matrix as one
  // one-cell batch per cell (same per-tile write order).
  Rng rng(30);
  const std::size_t n = 10;
  const Matrix a = random_nonneg(n, n, rng);
  TiledCrossbarMatrix batched(ideal_tiled(4), Rng(31));
  TiledCrossbarMatrix per_cell(ideal_tiled(4), Rng(31));
  batched.program(a, 4.0);
  per_cell.program(a, 4.0);

  std::vector<xbar::CellUpdate> updates;
  for (std::size_t j = 0; j < n; ++j)
    updates.push_back({j, j, rng.uniform(0.1, 2.0)});
  batched.update_cells(updates);
  for (const xbar::CellUpdate& u : updates) per_cell.update_cells({&u, 1});
  EXPECT_EQ(batched.assemble_effective(), per_cell.assemble_effective());
}

TEST(Tiled, SettleCacheSurvivesNoOpWritesAndFollowsRealOnes) {
  TiledConfig config = ideal_tiled(4);
  config.xbar.conductance_levels = 256;  // coarse: easy no-op writes
  Rng rng(32);
  const std::size_t n = 8;
  const Matrix a = random_nonneg(n, n, rng);
  TiledCrossbarMatrix tiled(config, Rng(33));
  tiled.program(a, 4.0);
  Vec b(n, 1.0);
  ASSERT_TRUE(tiled.solve(b).has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 1u);

  // Same-level rewrite: no tile reports a change, the factor survives.
  const xbar::CellUpdate noop{3, 3, a(3, 3) * (1.0 + 1e-9)};
  tiled.update_cells({&noop, 1});
  ASSERT_TRUE(tiled.solve(b).has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 1u);
  EXPECT_GE(tiled.settle_cache_stats().prepare_hits, 1u);

  // Real write: the next settle re-factors (exact mode).
  const xbar::CellUpdate real{3, 3, a(3, 3) + 1.0};
  tiled.update_cells({&real, 1});
  const auto x = tiled.solve(b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 2u);
  const Vec expected = LuFactorization(tiled.assemble_effective()).solve(b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR((*x)[i], expected[i], 1e-12);
}

/// Programs a 12×12 matrix with +4 on its diagonal over 4-wide tiles and
/// settles once, so the settle cache holds a factorization. Returns the
/// right-hand side of that settle.
Vec program_and_settle(TiledCrossbarMatrix& tiled) {
  Rng rng(37);
  const std::size_t n = 12;
  Matrix a = random_nonneg(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;
  tiled.program(a);
  Vec b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = 1.0 + 0.1 * static_cast<double>(i);
  EXPECT_TRUE(tiled.solve(b).has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 1u);
  return b;
}

/// After a write that changed some tile, the next composite settle is one
/// fresh LU of the assembled array.
void expect_fresh_settle(TiledCrossbarMatrix& tiled, const Vec& b) {
  const auto x = tiled.solve(b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(tiled.settle_cache_stats().full_factorizations, 2u);
  const Vec expected = LuFactorization(tiled.assemble_effective()).solve(b);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR((*x)[i], expected[i], 1e-12) << "row " << i;
}

TEST(Tiled, SettleAfterMidBatchRemapIsAFreshLu) {
  // A 2×2 batch inside tile (0, 0) whose second cell, 60, exceeds the
  // tile's full-scale: the first cell is written, then the tile re-maps
  // every cell, not just the written ones, and with 16 levels that moves
  // its other rows; the last two cells land on the re-mapped array.
  TiledConfig config = ideal_tiled(4);
  config.xbar.conductance_levels = 16;
  TiledCrossbarMatrix tiled(config, Rng(38));
  const Vec b = program_and_settle(tiled);
  const std::size_t programs_before = tiled.crossbar_stats().full_programs;
  tiled.update_cells(block_cells(1, 1, Matrix{{3.0, 60.0}, {2.0, 5.0}}));
  EXPECT_EQ(tiled.crossbar_stats().full_programs, programs_before + 1);
  // The re-map doubles the full-scale to 120: one level is 120 / 15.
  const Matrix effective = tiled.assemble_effective();
  EXPECT_NEAR(effective(1, 2), 60.0, 120.0 / 15);
  EXPECT_NEAR(effective(2, 2), 5.0, 120.0 / 15);
  expect_fresh_settle(tiled, b);
}

TEST(Tiled, SettleAfterUpdateCellsRemapIsAFreshLu) {
  TiledConfig config = ideal_tiled(4);
  config.xbar.conductance_levels = 16;
  TiledCrossbarMatrix tiled(config, Rng(38));
  const Vec b = program_and_settle(tiled);
  const std::size_t programs_before = tiled.crossbar_stats().full_programs;
  const xbar::CellUpdate overflow{1, 1, 60.0};
  tiled.update_cells({&overflow, 1});
  EXPECT_EQ(tiled.crossbar_stats().full_programs, programs_before + 1);
  expect_fresh_settle(tiled, b);
}

TEST(Tiled, SettleAfterHalfSelectDisturbIsAFreshLu) {
  // A write with half-select disturb also drifts the other cells on its
  // word and bit lines — rows of the tile that were never written.
  TiledConfig config = ideal_tiled(4);
  config.xbar.write_scheme.half_select_disturb = 1e-3;
  TiledCrossbarMatrix tiled(config, Rng(39));
  const Vec b = program_and_settle(tiled);
  const Matrix before = tiled.assemble_effective();
  const xbar::CellUpdate write{5, 5, before(5, 5) + 1.0};
  tiled.update_cells({&write, 1});
  EXPECT_NE(tiled.assemble_effective()(4, 5), before(4, 5));
  expect_fresh_settle(tiled, b);
}

TEST(Tiled, FailedGlobalSettleAccounting) {
  TiledCrossbarMatrix tiled(ideal_tiled(4), Rng(36));
  tiled.program(Matrix(8, 8, 1.0));  // rank-1 composite: singular
  const Vec b(8, 1.0);
  const auto before = tiled.noc_stats();
  EXPECT_FALSE(tiled.solve(b).has_value());
  const auto after = tiled.noc_stats();
  EXPECT_EQ(after.failed_global_settles, 1u);
  // No settle happened: no global settle counted, no boundary transfers.
  EXPECT_EQ(after.global_settles, before.global_settles);
  EXPECT_EQ(after.transfers, before.transfers);
}

// The monolithic crossbar is the one-tile structure: with the same stream it
// programs, writes, multiplies and settles bit for bit as a bare crossbar
// whose settle is the dense LU of its effective array, and it moves nothing
// over a NoC or through a summing amplifier.
TEST(Tiled, OneTileIsTheSingleCrossbar) {
  xbar::CrossbarConfig config;
  config.variation = mem::VariationModel::uniform(0.05);
  config.io_bits = 8;
  config.read_noise_sigma = 1e-3;
  Rng rng(60);
  const std::size_t n = 12;
  Matrix a = random_nonneg(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;
  TiledCrossbarMatrix one(config, Rng(61));
  xbar::Crossbar bare(config, Rng(61));
  one.program(a, 4.0);
  bare.program(a, 4.0);
  EXPECT_EQ(one.num_tiles(), 1u);
  EXPECT_EQ(one.assemble_effective(), bare.effective());

  // A batch of writes whose fifth cell exceeds the full-scale and re-maps
  // the whole array.
  std::vector<xbar::CellUpdate> updates;
  for (std::size_t j = 0; j < n; ++j)
    updates.push_back({j, (j + 1) % n, rng.uniform(0.5, 3.0)});
  updates[4].value = 10.0 * a.max_abs();
  EXPECT_EQ(one.update_cells(updates), bare.update_cells(updates));
  EXPECT_EQ(bare.stats().full_programs, 2u);
  EXPECT_EQ(one.assemble_effective(), bare.effective());

  Vec x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  using IoBoundary = xbar::Crossbar::IoBoundary;
  for (const IoBoundary io : {IoBoundary::kBoth, IoBoundary::kInputOnly,
                              IoBoundary::kOutputOnly, IoBoundary::kNone})
    EXPECT_EQ(one.multiply(x, io), bare.multiply(x, io));

  // The settle: the dense LU of the effective array between the same
  // converters, with the read noise of the tile's stream.
  const auto settled = one.solve(x);
  ASSERT_TRUE(settled.has_value());
  const xbar::Quantizer converter(config.io_bits);
  Vec expected = LuFactorization(bare.effective()).solve(converter.quantized(x));
  bare.add_read_noise(expected);
  converter.quantize(expected);
  EXPECT_EQ(*settled, expected);

  // A re-program keeps drawing from the same stream.
  one.program(a);
  bare.program(a);
  EXPECT_EQ(one.assemble_effective(), bare.effective());

  const NocStats& noc = one.noc_stats();
  EXPECT_EQ(noc.transfers, 0u);
  EXPECT_EQ(noc.value_hops, 0u);
  EXPECT_EQ(noc.global_settles, 0u);
  EXPECT_EQ(noc.tile_settles, 0u);
  EXPECT_EQ(one.amplifier_stats().vector_ops, 0u);
  EXPECT_EQ(one.amplifier_stats().element_ops, 0u);
  const xbar::CrossbarStats stats = one.crossbar_stats();
  EXPECT_EQ(stats.solve_ops, 1u);
  EXPECT_EQ(stats.failed_settles, 0u);
  EXPECT_EQ(stats.mvm_ops, bare.stats().mvm_ops);
  EXPECT_EQ(stats.full_programs, bare.stats().full_programs);
  EXPECT_EQ(stats.cells_written, bare.stats().cells_written);
  EXPECT_EQ(stats.write_pulses, bare.stats().write_pulses);
}

}  // namespace
}  // namespace memlp::noc
