// memlp::obs — hierarchical cost-attribution ledger.
//
// The paper's headline claim is energy efficiency, but `HardwareStats` only
// reports end-of-solve totals. The ledger attributes every analog hardware
// event (write pulses, settles, summing-amp ops, NoC hops) and every digital
// kernel (flops/bytes in memlp::linalg) to the currently-open `Profiler`
// call path, so a solve yields a phase×component cost tree, e.g.
// `xbar/iterations/settle → {settles, flops, bytes, ...}`. The counters are
// priced into joules/seconds by `perf::HardwareModel` at export time
// (src/perf/cost_tree.hpp).
//
// Determinism (the memlp::par contract, docs/parallelism.md):
//   * The ledger stores ONLY integer operation counters per call path.
//     Integer sums are associative, so merging per-thread slots in
//     increasing index order yields bit-identical trees at every
//     MEMLP_THREADS value; floating-point pricing happens once, on the
//     already-merged totals.
//   * Charge sites resolve their call path through
//     `Profiler::current_call_path()`, which applies the same
//     parallel-region prefix inheritance as `Profiler::enter`, so a charge
//     made from a pool worker lands on the same path as it would on the
//     launching thread.
//
// Cost discipline: `CostLedger::charge()` with no active ledger is one
// relaxed atomic load. Charge sites batch: a crossbar program() charges its
// full cell/pulse delta once, an LU factorization charges its closed-form
// flop count once — never per cell or per multiply-accumulate.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"

namespace memlp::obs {

/// Integer operation counters attributed to one call path. Analog counters
/// are the operands of `perf::HardwareModel::price_counters`; `flops`/`bytes`
/// count digital linear-algebra work and are reported unpriced.
struct CostCounters {
  std::uint64_t settles = 0;        ///< analog MVM/solve/global settles.
  std::uint64_t cells_written = 0;  ///< memristor cells programmed.
  std::uint64_t write_pulses = 0;   ///< programming pulses issued.
  std::uint64_t amp_vector_ops = 0;   ///< summing-amp bank vector ops.
  std::uint64_t amp_element_ops = 0;  ///< summing-amp per-element ops.
  std::uint64_t noc_value_hops = 0;   ///< Σ (segment length × hop count).
  std::uint64_t controller_iterations = 0;  ///< CMOS controller iterations.
  std::uint64_t flops = 0;  ///< digital floating-point operations.
  std::uint64_t bytes = 0;  ///< digital memory traffic (estimated).

  CostCounters& operator+=(const CostCounters& other) noexcept {
    settles += other.settles;
    cells_written += other.cells_written;
    write_pulses += other.write_pulses;
    amp_vector_ops += other.amp_vector_ops;
    amp_element_ops += other.amp_element_ops;
    noc_value_hops += other.noc_value_hops;
    controller_iterations += other.controller_iterations;
    flops += other.flops;
    bytes += other.bytes;
    return *this;
  }

  /// Counter-wise difference (for monotonic-snapshot diffs).
  [[nodiscard]] CostCounters since(const CostCounters& earlier) const noexcept {
    return {settles - earlier.settles,
            cells_written - earlier.cells_written,
            write_pulses - earlier.write_pulses,
            amp_vector_ops - earlier.amp_vector_ops,
            amp_element_ops - earlier.amp_element_ops,
            noc_value_hops - earlier.noc_value_hops,
            controller_iterations - earlier.controller_iterations,
            flops - earlier.flops,
            bytes - earlier.bytes};
  }

  [[nodiscard]] bool zero() const noexcept {
    return settles == 0 && cells_written == 0 && write_pulses == 0 &&
           amp_vector_ops == 0 && amp_element_ops == 0 &&
           noc_value_hops == 0 && controller_iterations == 0 && flops == 0 &&
           bytes == 0;
  }

  friend bool operator==(const CostCounters& a,
                         const CostCounters& b) noexcept {
    return a.settles == b.settles && a.cells_written == b.cells_written &&
           a.write_pulses == b.write_pulses &&
           a.amp_vector_ops == b.amp_vector_ops &&
           a.amp_element_ops == b.amp_element_ops &&
           a.noc_value_hops == b.noc_value_hops &&
           a.controller_iterations == b.controller_iterations &&
           a.flops == b.flops && a.bytes == b.bytes;
  }
  friend bool operator!=(const CostCounters& a,
                         const CostCounters& b) noexcept {
    return !(a == b);
  }
};

/// The merged ledger: call path → integer counters, path-sorted. The map
/// holds only paths that received at least one non-zero charge.
using CostTree = std::map<std::string, CostCounters>;

/// One raw charge occurrence (timeline mode only; Chrome counter tracks).
/// `trace_id`/`solve_id` carry the solve context active at the charge site
/// (0 when none), so a mixed-batch cost timeline slices per solve.
struct CostSample {
  std::string path;
  double ts_s = 0.0;  ///< seconds since the profiler epoch (or the
                      ///< ledger's own clock when no profiler is active).
  std::uint64_t trace_id = 0;
  std::uint64_t solve_id = 0;
  CostCounters delta;
};

/// Hierarchical cost ledger. Aggregation is always on; pass
/// `record_timeline = true` to additionally keep every raw charge
/// (bounded; needed for Chrome counter-track export).
class CostLedger {
 public:
  /// Path charged when no profiler frame is open at the charge site.
  static constexpr const char* kUnattributed = "unattributed";

  explicit CostLedger(bool record_timeline = false);
  ~CostLedger();
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// Adds `amount` to the calling thread's current profiler call path
  /// (kUnattributed when none is open). Zero amounts are dropped.
  void charge(const CostCounters& amount);

  /// Merged call-path → counters tree: per-thread slots merged in
  /// increasing index order, result path-sorted. Bit-identical at every
  /// thread count (integer counters only).
  [[nodiscard]] CostTree tree() const;

  /// Column-wise total over the whole tree.
  [[nodiscard]] CostCounters total() const;

  /// Raw charges (timeline mode), merged across slots and sorted by
  /// timestamp. Order among equal timestamps follows slot index.
  [[nodiscard]] std::vector<CostSample> timeline() const;

  [[nodiscard]] bool timeline_enabled() const noexcept {
    return record_timeline_;
  }

  /// Charges dropped after the per-slot timeline cap was hit.
  [[nodiscard]] std::uint64_t timeline_dropped() const;

  /// Discards all recorded data.
  void reset();

  /// The process-wide ledger (nullptr when cost accounting is off). Reads
  /// are one relaxed atomic load — safe on hot paths.
  static CostLedger* active() noexcept;

  /// Installs `ledger` as the process-wide ledger (nullptr disables). Not
  /// thread-safe against in-flight charges: switch only while no
  /// instrumented solve is running.
  static void set_active(CostLedger* ledger) noexcept;

  /// Charges the active ledger, if any: the one-liner for charge sites.
  static void charge_active(const CostCounters& amount) {
    if (CostLedger* ledger = active()) ledger->charge(amount);
  }

 private:
  struct Slot;

  bool record_timeline_ = false;
  Stopwatch clock_;
  std::vector<std::unique_ptr<Slot>> slots_;  ///< par::thread_slot_limit().
};

}  // namespace memlp::obs
