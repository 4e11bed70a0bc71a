#include "noc/tiled.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/par.hpp"
#include "linalg/ops.hpp"
#include "obs/cost_ledger.hpp"

namespace memlp::noc {
namespace {

/// Per-thread counterpart of TiledCrossbarMatrix::charge_transfer: tasks in
/// a parallel region charge a local NocStats, merged in tile order after.
/// The cost ledger is charged directly — its per-thread slots and call-path
/// inheritance keep the attribution thread-count-invariant.
void charge(NocStats& stats, std::size_t values, std::size_t hops) noexcept {
  ++stats.transfers;
  stats.value_hops += values * hops;
  obs::CostLedger::charge_active({.noc_value_hops = values * hops});
}

}  // namespace

TiledCrossbarMatrix::TiledCrossbarMatrix(TiledConfig config, Rng rng)
    : config_(config), rng_(rng) {
  if (config_.tile_dim == 0)
    throw ConfigError("tiled crossbar: tile_dim must be > 0");
  config_.xbar.max_dim = config_.tile_dim;
  config_.xbar.validate();
}

std::vector<TiledCrossbarMatrix::BlockRange> TiledCrossbarMatrix::cut(
    std::size_t extent, std::size_t tile_dim) {
  std::vector<BlockRange> ranges;
  for (std::size_t begin = 0; begin < extent; begin += tile_dim)
    ranges.push_back({begin, std::min(tile_dim, extent - begin)});
  return ranges;
}

void TiledCrossbarMatrix::program(const Matrix& a, double full_scale_hint,
                                  PivotPlan plan) {
  MEMLP_EXPECT_MSG(a.nonnegative(),
                   "tiled crossbar only represents non-negative matrices");
  MEMLP_EXPECT(a.rows() > 0 && a.cols() > 0);
  rows_ = a.rows();
  cols_ = a.cols();
  row_blocks_ = cut(rows_, config_.tile_dim);
  col_blocks_ = cut(cols_, config_.tile_dim);

  tiles_.clear();
  tiles_.reserve(row_blocks_.size() * col_blocks_.size());
  tile_zero_.assign(row_blocks_.size() * col_blocks_.size(), 0);
  full_scale_hint_ = full_scale_hint;
  // Split the RNG serially in tile order so every tile owns the same stream
  // regardless of thread count, then program the tiles in parallel — each
  // write sequence draws only from the tile's own stream. Tiles whose block
  // is all-zero are skipped entirely (structural zeros cost nothing to
  // represent); they still own their RNG stream so the other tiles' draws
  // are unaffected, and are lazily materialized if a write lands on them.
  for (std::size_t bi = 0; bi < row_blocks_.size(); ++bi)
    for (std::size_t bj = 0; bj < col_blocks_.size(); ++bj)
      tiles_.emplace_back(config_.xbar, rng_.split());
  par::parallel_for(
      tiles_.size(),
      [&](std::size_t t) {
        const std::size_t bi = t / col_blocks_.size();
        const std::size_t bj = t % col_blocks_.size();
        const Matrix block =
            a.block(row_blocks_[bi].begin, col_blocks_[bj].begin,
                    row_blocks_[bi].length, col_blocks_[bj].length);
        if (block.max_abs() == 0.0) {
          tile_zero_[t] = 1;  // each task owns its own slot
          return;
        }
        tiles_[t].program(block, full_scale_hint);
      },
      config_.threads);
  topology_ = make_topology(config_.topology, tiles_.size());
  // Every tile re-drew its cells: drop the factorization.
  settle_cache_.set_plan(std::move(plan));
}

void TiledCrossbarMatrix::materialize_tile(std::size_t bi, std::size_t bj) {
  const std::size_t t = tile_index(bi, bj);
  if (tile_zero_[t] == 0) return;
  // The tile was skipped at program time; give it its deferred all-zero
  // program (drawing only from its own stream) so the write below can land.
  tiles_[t].program(Matrix(row_blocks_[bi].length, col_blocks_[bj].length),
                    full_scale_hint_);
  tile_zero_[t] = 0;
}

std::size_t TiledCrossbarMatrix::update_cells(
    std::span<const xbar::CellUpdate> updates) {
  MEMLP_EXPECT(programmed());
  // Group the scattered cells by owning tile, preserving order within each
  // tile (tiles own independent RNG streams, so per-tile order is all that
  // matters for determinism).
  struct TileBatch {
    std::size_t bi = 0, bj = 0;
    std::vector<xbar::CellUpdate> cells;  // tile-local coordinates
  };
  std::vector<TileBatch> batches;
  std::vector<std::size_t> batch_of(tiles_.size(), tiles_.size());
  for (const xbar::CellUpdate& u : updates) {
    MEMLP_EXPECT(u.row < rows_ && u.col < cols_);
    const std::size_t bi = u.row / config_.tile_dim;
    const std::size_t bj = u.col / config_.tile_dim;
    const std::size_t t = tile_index(bi, bj);
    if (batch_of[t] == tiles_.size()) {
      materialize_tile(bi, bj);  // serial: before the parallel dispatch
      batch_of[t] = batches.size();
      batches.push_back({bi, bj, {}});
    }
    batches[batch_of[t]].cells.push_back({u.row - row_blocks_[bi].begin,
                                          u.col - col_blocks_[bj].begin,
                                          u.value});
  }
  std::vector<NocStats> local(batches.size());
  std::vector<std::size_t> changed(batches.size(), 0);
  par::parallel_for(
      batches.size(),
      [&](std::size_t k) {
        const TileBatch& batch = batches[k];
        xbar::Crossbar& t = tile(batch.bi, batch.bj);
        // Counts a full-scale re-program's writes as well.
        changed[k] = t.update_cells(batch.cells);
        charge(local[k], batch.cells.size(),
               topology_->hops_to_root(tile_index(batch.bi, batch.bj)));
      },
      config_.threads);
  std::size_t total_changed = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    stats_ += local[k];
    total_changed += changed[k];
  }
  // A changed tile changes the composite: the next settle re-assembles it.
  if (total_changed != 0) settle_cache_.invalidate();
  return total_changed;
}

Vec TiledCrossbarMatrix::multiply(std::span<const double> x,
                                  xbar::Crossbar::IoBoundary io) {
  MEMLP_EXPECT(programmed());
  MEMLP_EXPECT_MSG(x.size() == cols_, "tiled multiply: size mismatch");
  using IoBoundary = xbar::Crossbar::IoBoundary;
  // Tiles convert at the input when the structure does; partial outputs stay
  // analog into the accumulating arbiters, and the combined output crosses
  // one ADC when requested.
  const IoBoundary tile_io =
      (io == IoBoundary::kBoth || io == IoBoundary::kInputOnly)
          ? IoBoundary::kInputOnly
          : IoBoundary::kNone;
  Vec out(rows_, 0.0);
  // Block rows are independent: each task owns every tile of its row (their
  // RNG streams included), accumulates partials in bj order — the exact
  // serial summation chain — and writes a disjoint slice of `out`. NoC and
  // amplifier counters land in per-task locals, merged in row order below.
  std::vector<NocStats> local(row_blocks_.size());
  std::vector<xbar::AmplifierBank> banks(row_blocks_.size());
  par::parallel_for(
      row_blocks_.size(),
      [&](std::size_t bi) {
        const auto& rb = row_blocks_[bi];
        Vec accumulator(rb.length, 0.0);
        for (std::size_t bj = 0; bj < col_blocks_.size(); ++bj) {
          const auto& cb = col_blocks_[bj];
          const std::size_t t = tile_index(bi, bj);
          // A zero shard contributes nothing: no broadcast, no settle.
          if (tile_zero_[t] != 0) continue;
          // Input segment broadcast root -> tile.
          charge(local[bi], cb.length, topology_->hops_to_root(t));
          const Vec partial =
              tile(bi, bj).multiply(x.subspan(cb.begin, cb.length), tile_io);
          ++local[bi].tile_settles;
          // Partial result tile -> aggregating arbiter.
          charge(local[bi], rb.length, topology_->hops_to_root(t));
          accumulator = banks[bi].add(accumulator, partial);
        }
        std::copy(accumulator.begin(), accumulator.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(rb.begin));
      },
      config_.threads);
  for (std::size_t bi = 0; bi < row_blocks_.size(); ++bi) {
    stats_ += local[bi];
    amps_.absorb(banks[bi].stats());
  }
  if (io == IoBoundary::kBoth || io == IoBoundary::kOutputOnly) {
    const xbar::Quantizer adc(config_.xbar.io_bits);
    adc.quantize(out);
  }
  return out;
}

Matrix TiledCrossbarMatrix::assemble_effective() const {
  Matrix full;
  assemble_effective(full);
  return full;
}

void TiledCrossbarMatrix::assemble_effective(Matrix& full) const {
  MEMLP_EXPECT(programmed());
  // Every entry is written once: a tile's block from its array, a zero
  // shard's (which holds no cells) with zeros, unless the storage is fresh
  // and already zero.
  const bool reused = full.rows() == rows_ && full.cols() == cols_;
  if (!reused) full = Matrix(rows_, cols_);
  for (std::size_t bi = 0; bi < row_blocks_.size(); ++bi) {
    const BlockRange rows = row_blocks_[bi];
    for (std::size_t bj = 0; bj < col_blocks_.size(); ++bj) {
      const BlockRange cols = col_blocks_[bj];
      if (!tile_is_zero(bi, bj)) {
        full.set_block(rows.begin, cols.begin, tile(bi, bj).effective());
      } else if (reused) {
        for (std::size_t i = rows.begin; i < rows.begin + rows.length; ++i)
          std::ranges::fill(full.row(i).subspan(cols.begin, cols.length),
                            0.0);
      }
    }
  }
}

std::optional<Vec> TiledCrossbarMatrix::solve(std::span<const double> b,
                                              xbar::Crossbar::IoBoundary io) {
  using IoBoundary = xbar::Crossbar::IoBoundary;
  MEMLP_EXPECT(programmed());
  MEMLP_EXPECT_MSG(rows_ == cols_, "tiled solve requires a square matrix");
  MEMLP_EXPECT(b.size() == rows_);
  // Only a re-factor assembles the composite, into the storage of the
  // factor it replaces: no dense copy of the tiles outlives the settle.
  if (!settle_cache_.prepare(
          rows_, [this](Matrix& full) { assemble_effective(full); })) {
    // A singular composite network never settles: no boundary voltages move
    // and nothing is charged — only the failure is recorded.
    ++stats_.failed_global_settles;
    return std::nullopt;
  }
  // The arbiters connect the tiles into one composite network; boundary
  // voltages cross the NoC once per settle in each direction. Zero shards
  // are not wired in — they carry no cells and move no boundary voltages.
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (tile_zero_[t] != 0) continue;
    charge_transfer(tiles_[t].rows() + tiles_[t].cols(),
                    topology_->hops_to_root(t));
  }
  ++stats_.global_settles;
  obs::CostLedger::charge_active({.settles = 1});
  // Voltage I/O crosses the structure boundary with the tiles' precision.
  const xbar::Quantizer converter(config_.xbar.io_bits);
  const bool dac = io == IoBoundary::kBoth || io == IoBoundary::kInputOnly;
  const bool adc = io == IoBoundary::kBoth || io == IoBoundary::kOutputOnly;
  Vec x = settle_cache_.solve(dac ? converter.quantized(b)
                                  : Vec(b.begin(), b.end()));
  if (!std::all_of(x.begin(), x.end(),
                   [](double v) { return std::isfinite(v); })) {
    // The settle ran (and was charged) but read out garbage.
    ++stats_.failed_global_settles;
    return std::nullopt;
  }
  if (adc) converter.quantize(x);
  return x;
}

BlockSolveResult TiledCrossbarMatrix::solve_block_jacobi(
    std::span<const double> b, const BlockSolveOptions& options) {
  MEMLP_EXPECT(programmed());
  MEMLP_EXPECT_MSG(rows_ == cols_, "block-Jacobi requires a square matrix");
  MEMLP_EXPECT(b.size() == rows_);
  MEMLP_EXPECT_MSG(row_blocks_.size() == col_blocks_.size(),
                   "block-Jacobi requires a square tile grid");
  for (std::size_t k = 0; k < row_blocks_.size(); ++k)
    MEMLP_EXPECT_MSG(row_blocks_[k].length == col_blocks_[k].length,
                     "block-Jacobi requires square diagonal tiles");

  BlockSolveResult result;
  result.x.assign(rows_, 0.0);
  const double threshold = options.tolerance * std::max(1.0, norm_inf(b));
  const std::size_t nb = row_blocks_.size();
  // Convergence is judged against the effective matrix the tiles actually
  // realize, read controller-side: routing the residual check through
  // multiply() would push it across the ADC and read-noise path, which can
  // stall convergence near tolerance and inflates tile_settles/NoC counters
  // by a full MVM per sweep. Assembling once up front is valid because the
  // tiles are not rewritten during the sweeps.
  const Matrix effective = assemble_effective();
  for (std::size_t sweep = 1; sweep <= options.max_sweeps; ++sweep) {
    Vec next(rows_, 0.0);
    // Block rows relax independently within a sweep (Jacobi, not
    // Gauss-Seidel): each task reads only the previous iterate, owns every
    // tile of its row, and writes a disjoint slice of `next`.
    std::vector<NocStats> local(nb);
    std::vector<xbar::AmplifierBank> banks(nb);
    std::vector<unsigned char> singular(nb, 0);
    par::parallel_for(
        nb,
        [&](std::size_t bi) {
          const auto& rb = row_blocks_[bi];
          // An all-zero diagonal block can never settle to a solution.
          if (tile_is_zero(bi, bi)) {
            singular[bi] = 1;
            return;
          }
          Vec rhs = slice(b, rb.begin, rb.length);
          for (std::size_t bj = 0; bj < nb; ++bj) {
            if (bj == bi) continue;
            if (tile_is_zero(bi, bj)) continue;  // zero shard: no coupling
            const auto& cb = col_blocks_[bj];
            const std::size_t t = tile_index(bi, bj);
            charge(local[bi], cb.length,
                   topology_->hops(tile_index(bj, bj), t));
            const Vec contribution = tile(bi, bj).multiply(
                std::span<const double>(result.x)
                    .subspan(cb.begin, cb.length));
            ++local[bi].tile_settles;
            charge(local[bi], rb.length,
                   topology_->hops(t, tile_index(bi, bi)));
            rhs = banks[bi].sub(rhs, contribution);
          }
          auto block_x = tile(bi, bi).solve(rhs);
          ++local[bi].tile_settles;
          if (!block_x) {
            singular[bi] = 1;
            return;
          }
          std::copy(block_x->begin(), block_x->end(),
                    next.begin() + static_cast<std::ptrdiff_t>(rb.begin));
        },
        config_.threads);
    for (std::size_t bi = 0; bi < nb; ++bi) {
      stats_ += local[bi];
      amps_.absorb(banks[bi].stats());
    }
    // A singular diagonal tile means no convergence. (All block rows of the
    // sweep still run — required for thread-count-invariant stats.)
    if (std::find(singular.begin(), singular.end(), 1) != singular.end())
      return result;
    result.x.swap(next);
    result.sweeps = sweep;
    const Vec residual = sub(gemv(effective, result.x), b);
    result.residual_inf = norm_inf(residual);
    if (result.residual_inf <= threshold) {
      result.converged = true;
      break;
    }
    if (!std::isfinite(result.residual_inf)) break;
  }
  return result;
}

xbar::CrossbarStats TiledCrossbarMatrix::crossbar_stats() const noexcept {
  xbar::CrossbarStats total;
  for (const auto& t : tiles_) total += t.stats();
  return total;
}

void TiledCrossbarMatrix::reset_stats() noexcept {
  stats_ = {};
  amps_.reset_stats();
  for (auto& t : tiles_) t.reset_stats();
}

void TiledCrossbarMatrix::charge_transfer(std::size_t values,
                                          std::size_t hops) noexcept {
  ++stats_.transfers;
  stats_.value_hops += values * hops;
  obs::CostLedger::charge_active({.noc_value_hops = values * hops});
}

}  // namespace memlp::noc
