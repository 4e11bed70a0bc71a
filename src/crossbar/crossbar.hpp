// Memristor crossbar array simulator.
//
// The crossbar holds a logical non-negative matrix A (rows x cols) at its
// crosspoints. Physically (Fig. 1) the device between word-line i and
// bit-line j carries conductance g(i,j) and the array computes, in one analog
// settle:
//
//   * MVM mode:   voltages VI on the WLs  ->  bit-line currents
//                 I_o,j = Σ_i VI_i · g(i,j), sensed across R_s, so that
//                 b = g_s · VO  realizes  b = Aᵀ_phys · VI  (Eq. 5 is the
//                 exact divider form C = D·Gᵀ).
//   * Solve mode: voltages VO applied at the R_s terminals -> the WL voltages
//                 settle to the solution of the mapped system (§2.3), giving
//                 x = g_s/g_max · VI for A x = b ([8]).
//
// We store A in its logical orientation (the physical array holds the
// transpose; all imperfections are element-wise so the orientation does not
// change the math) and simulate the *functional* result of the imperfect
// programmed array:
//
//   g_ideal = g_min + (a / a_max) · (g_max − g_min)      (fast mapping of [8])
//   g_prog  = level-quantized g_ideal                     (write precision)
//   g_eff   = variation(g_prog)                           (Eq. 18, per write)
//
// Reads under ideal conditions are exact by Kirchhoff's law (§4.3): the
// readout compensates the Eq. (5) divider and a dummy column subtracts the
// g_min offset, so the simulator returns the exact math on the *effective*
// matrix, degraded only by the 8-bit I/O quantization and optional read
// noise. This class is the array alone: program, write and MVM. Solve mode
// is simulated by the array's owner, noc::TiledCrossbarMatrix, which settles
// one tile or a composite of many through one factor cache.
//
// Latency/energy are not simulated here; every operation increments
// CrossbarStats, which perf::HardwareModel converts to time and energy.
#pragma once

#include <array>
#include <cstddef>

#include "common/rng.hpp"
#include "crossbar/quantizer.hpp"
#include "crossbar/write_scheme.hpp"
#include "linalg/matrix.hpp"
#include "memristor/device.hpp"
#include "memristor/programming.hpp"
#include "memristor/variation.hpp"

namespace memlp::xbar {

/// One cell rewrite of a batched update (see Crossbar::update_cells).
struct CellUpdate {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Static configuration of a crossbar array.
struct CrossbarConfig {
  mem::DeviceParameters device{};
  mem::VariationModel variation = mem::VariationModel::none();
  /// Discrete programmable conductance states (256 = 8-bit writes, §3.3).
  std::size_t conductance_levels = 256;
  /// Voltage I/O precision in bits (§4.1); 0 = ideal.
  std::size_t io_bits = 8;
  /// Word/bit-line wire resistance per cell segment (IR drop, cf. [15]).
  /// A cell at row r, column c sees its conductance degraded by the series
  /// resistance of the (r + c + 2) segments between it and the drivers:
  /// g' = g / (1 + g·r_wire·(r + c + 2)). 0 (default) = ideal wires.
  /// Ignored by gain-ranged arrays (compensated periphery).
  double line_resistance_ohm = 0.0;
  /// V/2 write-bias scheme (§3.3): per-half-select multiplicative state
  /// disturb. 0 = the paper's ideal assumption (see crossbar/write_scheme.hpp).
  WriteSchemeParameters write_scheme{};
  /// Additive Gaussian read noise, as a fraction of each read's full scale
  /// (thermal/sense-amp noise). 0 = noiseless reads (the paper's model).
  double read_noise_sigma = 0.0;
  /// Per-cell gain-ranged writes: each crosspoint has its own gain stage, so
  /// a cell stores its value with *relative* precision (a mantissa quantized
  /// to `conductance_levels` steps) instead of sharing one array-wide
  /// full-scale. Needed for system matrices with huge entry dynamic range —
  /// the reduced-KKT M1 of the large-scale solver, whose X⁻¹Z / Y⁻¹W
  /// diagonals span many decades while the A blocks stay O(1). Costs extra
  /// periphery per cell; the default (false) is the paper's plain
  /// globally-mapped array.
  bool per_cell_gain_ranging = false;

  void validate() const;
};

/// Write/read operation counters (inputs to the hardware cost model).
struct CrossbarStats {
  /// Pulse-count histogram buckets: bucket 0 counts 0-pulse writes (a forced
  /// rewrite landing on the cell's current level), bucket k ≥ 1 counts
  /// writes needing [2^(k-1), 2^k) pulses; the last bucket is open-ended.
  static constexpr std::size_t kPulseHistogramBuckets = 12;

  std::size_t full_programs = 0;   ///< program() calls.
  std::size_t cells_written = 0;   ///< crosspoints whose level changed.
  std::size_t write_pulses = 0;    ///< total pulses across those cells.
  std::size_t mvm_ops = 0;         ///< analog multiply settles.
  /// Analog solve settles of one tile: a monolithic array's settles and the
  /// block-Jacobi diagonal settles, which noc::TiledCrossbarMatrix counts.
  std::size_t solve_ops = 0;
  /// Solve attempts that produced no usable solution: a singular effective
  /// array fails to settle (no settle happens, so nothing is charged to the
  /// energy ledger) and a non-finite readout is discarded.
  std::size_t failed_settles = 0;
  /// Per-cell-write pulse distribution across the write scheme (§3.3): the
  /// shape separates cheap level-neighbor updates (the O(N) per-iteration
  /// diagonal rewrites) from expensive full-range programming writes.
  std::array<std::size_t, kPulseHistogramBuckets> pulse_histogram{};

  /// Histogram bucket index for one write of `pulses` pulses.
  [[nodiscard]] static std::size_t pulse_bucket(std::size_t pulses) noexcept;

  /// Accounts one cell write of `pulses` pulses (counters + histogram).
  void record_write(std::size_t pulses) noexcept;

  CrossbarStats& operator+=(const CrossbarStats& other) noexcept;

  /// Counter-wise difference (for phase snapshots); requires *this >= other.
  [[nodiscard]] CrossbarStats since(const CrossbarStats& earlier) const noexcept;
};

/// A programmable crossbar array holding one non-negative logical matrix.
class Crossbar {
 public:
  /// The RNG drives write-time variation draws; pass a deterministic seed
  /// stream for reproducible experiments.
  Crossbar(CrossbarConfig config, Rng rng);

  /// Programs the full array to represent the non-negative matrix `a`.
  /// Re-programming with a different shape is allowed (a new array).
  /// `full_scale_hint` reserves mapping headroom: the conductance full-scale
  /// covers max(a.max_abs(), full_scale_hint), so later update_cells writes
  /// of values up to the hint do not force a whole-array re-map.
  void program(const Matrix& a, double full_scale_hint = 0.0);

  /// True when an array has been programmed.
  [[nodiscard]] bool programmed() const noexcept { return !ideal_.empty(); }

  [[nodiscard]] std::size_t rows() const noexcept { return ideal_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return ideal_.cols(); }

  /// Rewrites a batch of scattered cells, in order — the one write after
  /// program(), used for the per-PDIP-iteration diagonal refresh. Only cells
  /// whose programmed level changes are written (and counted); the write
  /// cost is charged to the ledger once per batch. A value above the
  /// mapping full-scale transparently re-programs the whole array at that
  /// cell (a full-scale change re-maps every cell). Returns the number of
  /// cells whose programmed level changed: the owner's settle factor is
  /// stale exactly when it is not 0.
  std::size_t update_cells(std::span<const CellUpdate> updates);

  /// Which I/O conversion boundaries an operation crosses. Voltages are
  /// quantized (io_bits) only where they pass a DAC/ADC; chained analog
  /// stages (MVM output feeding summing amps feeding a solve input) stay at
  /// full analog precision (§4.1 quantizes stored inputs/outputs, not
  /// intermediate nets).
  enum class IoBoundary {
    kBoth,        ///< digital in, digital out (standalone op).
    kInputOnly,   ///< digital in, analog out (feeds an analog chain).
    kOutputOnly,  ///< analog in, digital out (ends an analog chain).
    kNone,        ///< fully inside an analog chain.
  };

  /// Analog MVM: returns ≈ A·x (one settle).
  [[nodiscard]] Vec multiply(std::span<const double> x,
                             IoBoundary io = IoBoundary::kBoth);

  /// Adds one readout's Gaussian noise (read_noise_sigma of the vector's
  /// scale), drawn from this array's stream: the read noise of a settle
  /// that the array's owner computed.
  void add_read_noise(Vec& out);

  /// The matrix the caller asked for (pre-imperfection).
  [[nodiscard]] const Matrix& ideal() const noexcept { return ideal_; }

  /// The logical matrix the imperfect array actually realizes.
  [[nodiscard]] const Matrix& effective() const noexcept { return effective_; }

  [[nodiscard]] const CrossbarStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  [[nodiscard]] const CrossbarConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Maps one logical value through quantized write + variation; updates
  /// level/effective storage and pulse counters. `force` rewrites (and
  /// redraws variation for) the cell even when its level is unchanged — a
  /// full program erases the array first, so every cell is a fresh write.
  /// Returns true when the cell was actually rewritten (its effective value
  /// may have changed).
  bool write_cell(std::size_t r, std::size_t c, double value, bool force);

  /// Writes a run of update_cells' batch that the full-scale covers (bounds
  /// already checked) and charges the aggregated write cost once.
  void apply_updates(std::span<const CellUpdate> updates);

  /// Recomputes `effective_` entry from the varied conductance, including
  /// the position-dependent IR-drop degradation.
  [[nodiscard]] double logical_from_conductance(double g_eff, std::size_t r,
                                                std::size_t c) const noexcept;

  /// Half-select disturb on the row/column sharing a written cell (§3.3).
  void apply_half_select_disturb(std::size_t r, std::size_t c);

  CrossbarConfig config_;
  Rng rng_;
  mem::ProgrammingModel programming_;
  Quantizer io_;

  Matrix ideal_;        // requested logical matrix
  Matrix level_g_;      // programmed (quantized, pre-variation) conductances
  Matrix effective_g_;  // post-variation conductances
  Matrix effective_;    // logical matrix realized by effective_g_
  double full_scale_ = 0.0;  // a_max used by the mapping
  double slope_ = 0.0;       // (g_max-g_min)/a_max

  CrossbarStats stats_;
};

}  // namespace memlp::xbar
