// A large logical matrix spread across multiple crossbar tiles behind an
// analog NoC (§3.4, Fig. 3).
//
// The matrix is cut into a grid of blocks of at most `tile_dim` per side;
// each block lives on its own crossbar tile. The arbiters:
//   * broadcast input-voltage segments to the tiles of a block column,
//   * accumulate partial bit-line outputs of a block row with summing
//     amplifiers,
//   * for solve mode, wire the tiles into one composite Kirchhoff network
//     ("data transfers maintain analog form") so the whole structure settles
//     to the solution of the assembled system — one *global settle*.
//
// A block-Jacobi iterative solve is also provided (`solve_block_jacobi`) as
// the distributed-control alternative where a single composite settle is not
// available; bench/ablation_noc compares the two.
//
// The structure is the one owner of every analog settle. A monolithic
// crossbar is its one-tile case (the CrossbarConfig constructor): one tile
// holds the whole programmed matrix, with no NoC and no summing amplifier
// around it. That tile draws from the structure's stream unsplit, and its
// settles count as the crossbar's (CrossbarStats::solve_ops), read noise
// included; a grid's composite settles count as global settles.
//
// All data movement is counted in NocStats (values × hops) and priced by
// perf::HardwareModel.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "crossbar/amplifier.hpp"
#include "crossbar/crossbar.hpp"
#include "linalg/factor_cache.hpp"
#include "noc/topology.hpp"

namespace memlp::noc {

/// Aggregated operation counters for the tiled structure.
struct NocStats {
  std::size_t transfers = 0;        ///< vector segments moved over the NoC.
  std::size_t value_hops = 0;       ///< Σ (segment length × hop count).
  std::size_t global_settles = 0;   ///< composite solve settles.
  std::size_t tile_settles = 0;     ///< per-tile MVM/solve settles.
  /// Composite solve attempts that produced no usable solution (singular
  /// composite network — nothing settles, nothing is charged — or a
  /// non-finite readout).
  std::size_t failed_global_settles = 0;

  NocStats& operator+=(const NocStats& other) noexcept {
    transfers += other.transfers;
    value_hops += other.value_hops;
    global_settles += other.global_settles;
    tile_settles += other.tile_settles;
    failed_global_settles += other.failed_global_settles;
    return *this;
  }

  /// Counter-wise difference (for phase snapshots).
  [[nodiscard]] NocStats since(const NocStats& earlier) const noexcept {
    return {transfers - earlier.transfers, value_hops - earlier.value_hops,
            global_settles - earlier.global_settles,
            tile_settles - earlier.tile_settles,
            failed_global_settles - earlier.failed_global_settles};
  }
};

/// Configuration of the tiled structure.
struct TiledConfig {
  /// Maximum crossbar side length (manufacturing limit, §3.4).
  std::size_t tile_dim = 128;
  TopologyKind topology = TopologyKind::kHierarchical;
  /// Per-tile crossbar configuration.
  xbar::CrossbarConfig xbar{};
  /// Threads for per-tile operations (program/update/MVM/block-Jacobi);
  /// 0 = par::default_threads(). Results are bit-identical at any value:
  /// every tile owns a split RNG stream and stat counters are accumulated
  /// per thread, then merged in tile order (see docs/parallelism.md).
  std::size_t threads = 0;
};

/// Options/result for the block-Jacobi distributed solve.
struct BlockSolveOptions {
  std::size_t max_sweeps = 200;
  double tolerance = 1e-9;
};

struct BlockSolveResult {
  Vec x;
  std::size_t sweeps = 0;
  double residual_inf = 0.0;
  bool converged = false;
};

/// A non-negative logical matrix held across a grid of crossbar tiles.
class TiledCrossbarMatrix {
 public:
  /// A grid of tiles at most config.tile_dim per side behind the NoC. Every
  /// program() gives each tile its own split stream.
  TiledCrossbarMatrix(TiledConfig config, Rng rng);

  /// The monolithic crossbar: one tile, without a size limit, that holds
  /// whatever is programmed. Its tile draws from `rng` unsplit and keeps
  /// drawing across program() calls, which re-program it in place.
  TiledCrossbarMatrix(const xbar::CrossbarConfig& config, Rng rng);

  /// Programs the tile grid to represent `a` (non-negative). The optional
  /// full-scale hint is forwarded to every tile; `plan` is the pivot plan
  /// the settles are factored with (linalg/lu.hpp; empty = dense partial
  /// pivoting). Kirchhoff settles to the same vector either way.
  void program(const Matrix& a, double full_scale_hint = 0.0,
               PivotPlan plan = {});

  [[nodiscard]] bool programmed() const noexcept { return rows_ != 0; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t num_tiles() const noexcept {
    return tiles_.size();
  }
  /// Tiles whose block was all-zero at program time and that have not been
  /// written since. Such shards hold no cells: programming, settles, and NoC
  /// traffic are all skipped for them (structural zeros are free).
  [[nodiscard]] std::size_t num_zero_tiles() const noexcept {
    std::size_t zeros = 0;
    for (const unsigned char z : tile_zero_) zeros += z;
    return zeros;
  }
  [[nodiscard]] const Topology& topology() const { return *topology_; }

  /// Rewrites a batch of scattered cells (global coordinates), grouping them
  /// by tile and dispatching one batched write per affected tile — the one
  /// write after program(), used for the per-PDIP-iteration diagonal
  /// refresh. Returns the number of cells whose programmed level actually
  /// changed (a tile's full-scale re-map counts its re-written cells).
  std::size_t update_cells(std::span<const xbar::CellUpdate> updates);

  /// Distributed analog MVM: ≈ A·x. The IoBoundary selects which DAC/ADC
  /// conversions the operation crosses (see xbar::Crossbar::IoBoundary).
  [[nodiscard]] Vec multiply(
      std::span<const double> x,
      xbar::Crossbar::IoBoundary io = xbar::Crossbar::IoBoundary::kBoth);

  /// Composite-network solve of A·x = b (square matrices): the arbiters wire
  /// all tiles into one Kirchhoff network and the structure settles once.
  /// Returns nullopt when the effective composite matrix is singular —
  /// physically, the array fails to settle — or the readout is not finite.
  [[nodiscard]] std::optional<Vec> solve(
      std::span<const double> b,
      xbar::Crossbar::IoBoundary io = xbar::Crossbar::IoBoundary::kBoth);

  /// Distributed block-Jacobi solve using only per-tile settles (diagonal
  /// tiles in solve mode, off-diagonal tiles in MVM mode). Requires the
  /// diagonal tiles to be square. Each diagonal tile is factored once per
  /// call. Convergence is not guaranteed for general systems — check
  /// `converged`.
  [[nodiscard]] BlockSolveResult solve_block_jacobi(
      std::span<const double> b, const BlockSolveOptions& options = {});

  /// The logical matrix realized by the imperfect tiles, assembled.
  [[nodiscard]] Matrix assemble_effective() const;
  /// The same, written into `full`, which has this shape: every entry once,
  /// a zero shard's as zeros, with no allocation (a settle's builder).
  void fill_effective(Matrix& full) const;

  [[nodiscard]] const NocStats& noc_stats() const noexcept { return stats_; }
  /// Sum of all tiles' crossbar counters, with the tile settles the
  /// structure computes for them.
  [[nodiscard]] xbar::CrossbarStats crossbar_stats() const noexcept;
  [[nodiscard]] const xbar::AmplifierStats& amplifier_stats() const noexcept {
    return amps_.stats();
  }
  /// Settle-cache counters (full refactors vs reused factors).
  [[nodiscard]] const FactorCacheStats& settle_cache_stats() const noexcept {
    return settle_cache_.stats();
  }
  /// The settle factorization in use (nullptr before the first settle or
  /// after a write changed the array).
  [[nodiscard]] const LuFactorization* settle_factor() const noexcept {
    return settle_cache_.factorization();
  }
  void reset_stats() noexcept;

  [[nodiscard]] const TiledConfig& config() const noexcept { return config_; }

 private:
  struct BlockRange {
    std::size_t begin = 0;
    std::size_t length = 0;
  };

  [[nodiscard]] std::size_t tile_index(std::size_t bi,
                                       std::size_t bj) const noexcept {
    return bi * col_blocks_.size() + bj;
  }
  xbar::Crossbar& tile(std::size_t bi, std::size_t bj) {
    return tiles_[tile_index(bi, bj)];
  }
  const xbar::Crossbar& tile(std::size_t bi, std::size_t bj) const {
    return tiles_[tile_index(bi, bj)];
  }

  /// Programs `a` onto a fresh grid of tile_dim tiles, each with its own
  /// split stream; all-zero blocks stay unprogrammed.
  void program_grid(const Matrix& a, double full_scale_hint);

  /// Charges a transfer of `values` elements across `hops` hops.
  void charge_transfer(std::size_t values, std::size_t hops) noexcept;

  [[nodiscard]] bool tile_is_zero(std::size_t bi, std::size_t bj) const {
    return tile_zero_[tile_index(bi, bj)] != 0;
  }
  /// Programs a skipped all-zero tile (as zeros, from its own RNG stream)
  /// so a write can land on it; no-op for materialized tiles.
  void materialize_tile(std::size_t bi, std::size_t bj);

  static std::vector<BlockRange> cut(std::size_t extent, std::size_t tile_dim);

  TiledConfig config_;
  Rng rng_;
  /// True for the monolithic array (see the CrossbarConfig constructor).
  bool one_tile_ = false;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<BlockRange> row_blocks_;
  std::vector<BlockRange> col_blocks_;
  std::vector<xbar::Crossbar> tiles_;
  /// Per-tile flag: 1 = the tile's block was all-zero at program time and
  /// the tile was left unprogrammed (no cells, no settles, no traffic).
  std::vector<unsigned char> tile_zero_;
  /// Full-scale hint of the last program(), reused when a zero tile is
  /// lazily materialized so its mapping matches its siblings'.
  double full_scale_hint_ = 0.0;
  std::unique_ptr<Topology> topology_;
  xbar::AmplifierBank amps_;
  NocStats stats_;
  /// Tile settles the structure computes: the one tile's, and block-Jacobi's
  /// diagonal ones (solve_ops and failed_settles only).
  xbar::CrossbarStats solve_stats_;
  /// Caches the settle factorization across settles; dropped only when a
  /// write changed some tile. A re-factor assembles the composite
  /// (fill_effective) into the dropped factor's storage, or the
  /// storage program() reserved, and the new factor takes it over.
  FactorizationCache settle_cache_;
};

}  // namespace memlp::noc
