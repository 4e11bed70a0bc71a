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
// Reads under ideal conditions are exact by Kirchhoff's law (§4.3), so the
// simulator returns the exact math on the *effective* matrix, optionally
// degraded by 8-bit I/O quantization and, if sense-divider compensation is
// disabled, by the per-column attenuation g_s/(g_s + Σg) of Eq. (5).
//
// Latency/energy are not simulated here; every operation increments
// CrossbarStats, which perf::HardwareModel converts to time and energy.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "common/rng.hpp"
#include "crossbar/quantizer.hpp"
#include "crossbar/write_scheme.hpp"
#include "linalg/factor_cache.hpp"
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
  /// Sense resistor conductance g_s (siemens). Large vs g_max keeps the
  /// bit-line near virtual ground (small divider error).
  double sense_conductance = 0.1;
  /// When true (default, the paper's assumption of exact analog ops) the
  /// readout compensates the g_s/(g_s+Σg) divider of Eq. (5) exactly; when
  /// false the attenuation is left in the result (ablation).
  bool compensate_sense_divider = true;
  /// When true (default) a dummy-column reference subtracts the g_min offset
  /// that zero entries contribute; when false the offset remains (ablation).
  bool subtract_gmin_offset = true;
  /// Word/bit-line wire resistance per cell segment (IR drop, cf. [15]).
  /// A cell at row r, column c sees its conductance degraded by the series
  /// resistance of the (r + c + 2) segments between it and the drivers:
  /// g' = g / (1 + g·r_wire·(r + c + 2)). 0 (default) = ideal wires.
  /// Ignored by gain-ranged arrays (compensated periphery).
  double line_resistance_ohm = 0.0;
  /// Maximum rows/cols this array supports; 0 = unlimited. The NoC tiles
  /// enforce finite sizes (§3.4); standalone arrays default to unlimited.
  std::size_t max_dim = 0;
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
  /// globally-mapped array. Requires compensate_sense_divider.
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
  std::size_t solve_ops = 0;       ///< analog solve settles.
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
  /// covers max(a.max_abs(), full_scale_hint), so later update_block calls
  /// with values up to the hint do not force a whole-array re-map.
  void program(const Matrix& a, double full_scale_hint = 0.0);

  /// True when an array has been programmed.
  [[nodiscard]] bool programmed() const noexcept { return !ideal_.empty(); }

  [[nodiscard]] std::size_t rows() const noexcept { return ideal_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return ideal_.cols(); }

  /// Rewrites the rectangular block with origin (r0, c0). Only cells whose
  /// programmed level changes are counted as written. If the block raises
  /// the array's maximum value above the mapping full-scale, the whole array
  /// is transparently re-programmed (a full-scale change re-maps every cell).
  void update_block(std::size_t r0, std::size_t c0, const Matrix& block);

  /// Rewrites a single cell (same contract as update_block).
  void update_cell(std::size_t r, std::size_t c, double value);

  /// Rewrites a batch of scattered cells in one pass — the per-PDIP-iteration
  /// diagonal refresh path. Semantically each entry behaves like
  /// update_cell(), but pulse/cell accounting is aggregated into a single
  /// ledger charge and the settle cache is dropped only when some cell
  /// actually changed. Returns the number of cells whose programmed level
  /// changed.
  std::size_t update_cells(std::span<const CellUpdate> updates);

  /// Settle-cache behavior counters (full refactors vs reused factors).
  [[nodiscard]] const FactorCacheStats& settle_cache_stats() const noexcept {
    return settle_cache_.stats();
  }

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

  /// Analog MVM from the bit-line side: returns ≈ Aᵀ·x (one settle).
  [[nodiscard]] Vec multiply_transposed(std::span<const double> x,
                                        IoBoundary io = IoBoundary::kBoth);

  /// Analog solve of A·x = b (square arrays only). Returns nullopt when the
  /// effective array is singular — physically, the array fails to settle.
  [[nodiscard]] std::optional<Vec> solve(std::span<const double> b,
                                         IoBoundary io = IoBoundary::kBoth);

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
  /// may have changed); a no-op write leaves the settle cache untouched.
  bool write_cell(std::size_t r, std::size_t c, double value, bool force);

  /// Shared core of update_block/update_cells: applies the updates (bounds
  /// already checked, full-scale already covers them), drops the settle
  /// cache when a cell changed, and charges the aggregated write cost once.
  /// Returns the number of cells whose programmed level changed.
  std::size_t apply_updates(std::span<const CellUpdate> updates);

  /// Recomputes `effective_` entry from the varied conductance, including
  /// the position-dependent IR-drop degradation.
  [[nodiscard]] double logical_from_conductance(double g_eff, std::size_t r,
                                                std::size_t c) const noexcept;

  /// Applies the Eq. (5) divider attenuation to an output vector when
  /// compensation is disabled. `row_oriented` selects which dimension the
  /// outputs correspond to.
  void apply_sense_divider(Vec& out, bool transposed) const;

  /// Adds per-read Gaussian noise (read_noise_sigma of the vector's scale).
  void apply_read_noise(Vec& out);

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
  /// Caches the effective-matrix factorization across settles; re-factors
  /// only after a write really changed a cell (linalg/factor_cache.hpp).
  FactorizationCache settle_cache_;
};

}  // namespace memlp::xbar
