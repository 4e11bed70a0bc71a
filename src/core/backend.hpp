// Analog execution backend for the crossbar solvers.
//
// Both solvers drive their system matrix through this interface. Its one
// implementation holds a noc::TiledCrossbarMatrix, the one settle owner:
// a single monolithic crossbar (Solver 1's default) is its one-tile case,
// and a grid of crossbar tiles behind an analog NoC (§3.4) is the forced
// case for matrices beyond the manufacturable crossbar size.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "crossbar/amplifier.hpp"
#include "crossbar/crossbar.hpp"
#include "noc/tiled.hpp"

namespace memlp::obs {
class PhaseSpan;
}

namespace memlp::core {

/// Merged operation counters from a backend (inputs to the cost model).
struct BackendStats {
  xbar::CrossbarStats xbar;
  xbar::AmplifierStats amps;
  noc::NocStats noc;
  /// Settle-cache reuse counters (full LUs vs reused factors).
  FactorCacheStats settle_cache;
  std::size_t num_tiles = 1;
  /// Shards left unprogrammed because their block was all-zero (gauge, not
  /// a counter — like num_tiles it describes the array, not an op stream).
  std::size_t zero_tiles = 0;

  BackendStats& operator+=(const BackendStats& other) noexcept {
    xbar += other.xbar;
    amps += other.amps;
    noc += other.noc;
    settle_cache += other.settle_cache;
    num_tiles = num_tiles > other.num_tiles ? num_tiles : other.num_tiles;
    zero_tiles = zero_tiles > other.zero_tiles ? zero_tiles : other.zero_tiles;
    return *this;
  }

  /// Counter-wise difference (for phase snapshots).
  [[nodiscard]] BackendStats since(const BackendStats& earlier) const noexcept {
    BackendStats d;
    d.xbar = xbar.since(earlier.xbar);
    d.amps = amps.since(earlier.amps);
    d.noc = noc.since(earlier.noc);
    d.settle_cache = settle_cache.since(earlier.settle_cache);
    d.num_tiles = num_tiles;
    d.zero_tiles = zero_tiles;
    return d;
  }
};

/// Hardware selection for a solver's system matrix.
struct BackendOptions {
  xbar::CrossbarConfig crossbar{};
  /// Hold the system on a grid of tiles behind the NoC, not on one
  /// monolithic crossbar.
  bool force_noc = false;
  /// Tile side of the grid when force_noc is set.
  std::size_t tile_dim = 128;
  noc::TopologyKind topology = noc::TopologyKind::kHierarchical;
};

/// A programmable analog matrix (single crossbar or tiled NoC). Tests
/// substitute fakes for the one implementation make_backend() returns.
class AnalogBackend {
 public:
  virtual ~AnalogBackend() = default;

  using IoBoundary = xbar::Crossbar::IoBoundary;

  /// Programs the array to hold `a`; `plan` is the pivot plan its settles
  /// are factored with (linalg/lu.hpp; empty = dense partial pivoting).
  virtual void program(const Matrix& a, double full_scale_hint,
                       PivotPlan plan = {}) = 0;
  /// Rewrites a batch of scattered cells in one controller transaction —
  /// the one write after program(), used for the per-PDIP-iteration
  /// diagonal refresh. One aggregated ledger charge and one settle-cache
  /// notification pass instead of per-cell bookkeeping.
  virtual void update_cells(std::span<const xbar::CellUpdate> updates) = 0;
  [[nodiscard]] virtual Vec multiply(std::span<const double> x,
                                     IoBoundary io = IoBoundary::kBoth) = 0;
  [[nodiscard]] virtual std::optional<Vec> solve(
      std::span<const double> b, IoBoundary io = IoBoundary::kBoth) = 0;
  [[nodiscard]] virtual BackendStats stats() const = 0;
  /// The factorization the settles currently use (nullptr when none).
  [[nodiscard]] virtual const LuFactorization* settle_factor() const = 0;
  virtual void reset_stats() = 0;
};

/// Annotates a trace phase span with a BackendStats counter delta: crossbar
/// programming/read ops (plus the non-empty pulse-histogram buckets),
/// amplifier ops, and — when more than one tile is involved — NoC traffic.
/// No-op when the span has no sink attached.
void annotate_backend_stats(obs::PhaseSpan& span, const BackendStats& delta);

/// The analog array of a system: tiles of options.tile_dim behind the NoC
/// when force_noc is set, else one monolithic crossbar (the one-tile
/// structure, whose tile holds the whole system).
std::unique_ptr<AnalogBackend> make_backend(const BackendOptions& options,
                                            Rng rng);

}  // namespace memlp::core
