// Hardware latency/energy estimation (§4.4).
//
// The paper estimates crossbar-solver performance analytically: iteration
// count (from simulation) × per-iteration operation counts (≈2.7N
// coefficient writes, one MVM settle, one solve settle, amplifier updates)
// × per-operation constants from the Yakopcic-model-based study [23]. We
// reproduce the same methodology: the solvers count every hardware
// operation exactly (writes are counted per cell whose programmed level
// changed, pulses per level distance), and this model prices the counters.
//
// Per-operation constants (documented substitution — the paper does not
// publish its table; values are chosen in the published TiO2/ReRAM range and
// recorded here so every figure is reproducible):
//   * analog settle (MVM or solve): 100 ns — crossbar RC settling per [23].
//   * coefficient write: 500 ns/cell program-and-verify overhead plus
//     10 ns per pulse (§3.3's pulse trains).
//   * summing-amplifier bank: 20 ns per vector operation.
//   * NoC: 1 ns per value-hop through the analog switches [21].
//   * CMOS controller: 2 µs and 2 mJ per PDIP iteration (sequencing, DAC
//     refresh, write-verify control). Together with the 8 µJ per coefficient
//     write this reproduces the ~0.9 J / ~78 ms the paper estimates for an
//     ideal m = 1024 solve (~30 iterations × 2.7N coefficient updates) and
//     the ~10–50 W system power implied by its Fig. 6/7 pairs.
//
// The CPU baseline mirrors the paper's: measured wall-clock × 35 W package
// power (the power implied by the paper's 6.23 s / 218.1 J linprog pair).
//
// As §3.5 notes, the O(N²) initial programming of the full array is not part
// of the iterative-phase analysis; estimate() therefore prices the iterative
// counters, and estimate_programming() prices the one-off initialization
// separately (both are reported in EXPERIMENTS.md).
#pragma once

#include "core/xbar_pdip.hpp"
#include "obs/cost_ledger.hpp"

namespace memlp::perf {

/// Per-operation time/energy constants (see file comment).
struct HardwareCostConstants {
  double settle_s = 100e-9;
  double write_cell_s = 500e-9;
  double write_pulse_s = 10e-9;
  double amp_vector_op_s = 20e-9;
  double noc_value_hop_s = 1e-9;
  double controller_iteration_s = 2e-6;

  double settle_j = 5e-6;
  double write_cell_j = 8e-6;
  double write_pulse_j = 1e-9;
  double amp_element_j = 5e-12;
  double noc_value_hop_j = 1e-12;
  double controller_iteration_j = 2e-3;
};

/// A priced operation record.
struct CostEstimate {
  double latency_s = 0.0;
  double energy_j = 0.0;

  CostEstimate& operator+=(const CostEstimate& other) noexcept {
    latency_s += other.latency_s;
    energy_j += other.energy_j;
    return *this;
  }
};

/// Prices solver operation counters.
class HardwareModel {
 public:
  explicit HardwareModel(HardwareCostConstants constants = {})
      : constants_(constants) {}

  [[nodiscard]] const HardwareCostConstants& constants() const noexcept {
    return constants_;
  }

  /// Prices one cost-ledger counter set: the one pricing formula, which
  /// estimate() and estimate_programming() also use. The pricing is linear,
  /// so summing priced rows of a ledger tree equals pricing the tree's
  /// total. Digital `flops`/`bytes` carry no analog cost (the CPU baseline
  /// prices wall time, not operation counts).
  [[nodiscard]] CostEstimate price_counters(
      const obs::CostCounters& counters) const;

  /// Iterative-phase estimate of a solve (excludes initial programming),
  /// the quantity Figs. 6/7 report.
  [[nodiscard]] CostEstimate estimate(const core::XbarSolveStats& stats) const;

  /// One-off array-programming estimate (the O(N²) initialization).
  [[nodiscard]] CostEstimate estimate_programming(
      const core::XbarSolveStats& stats) const;

 private:
  HardwareCostConstants constants_;
};

/// CPU-side cost model for the software baselines.
struct CpuModel {
  /// Package power implied by the paper's linprog latency/energy pairs.
  double power_w = 35.0;

  [[nodiscard]] CostEstimate estimate(double wall_seconds) const noexcept {
    return {wall_seconds, wall_seconds * power_w};
  }
};

}  // namespace memlp::perf
