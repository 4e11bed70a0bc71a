// memlp::obs — solver health monitoring.
//
// The engine's exit conditions already detect pathologies (stall, hard
// divergence, wild jumps); this module turns those detections — plus
// cross-solve patterns the engine cannot see from inside one run (retry
// storms) — into a typed anomaly stream with three
// fan-outs per report: a metrics counter (`health.<solver>.<anomaly>`), a
// flight-recorder record (post-mortem context), and an optional `anomaly`
// trace event on the solve's sink. Per-solver rollups feed `memlp_top`'s
// anomaly column via the Prometheus exposition.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace memlp::obs {

class TraceSink;

/// Anomaly catalogue (docs/observability.md documents each trigger).
enum class Anomaly : std::uint8_t {
  kStall = 0,             ///< iterate frozen / no progress exit.
  kDivergence = 1,        ///< residuals or iterates growing without bound.
  kWildJump = 2,          ///< >100× one-step jump in |x| and |y|.
  kMuOscillation = 3,     ///< µ flip-flopping instead of decreasing.
  kRetryStorm = 5,        ///< analog solve needing ≥3 attempts.
};

/// Metric/dump name of `anomaly` ("stall", "divergence", ...).
const char* anomaly_name(Anomaly anomaly) noexcept;

/// Process-wide anomaly collector. report() is cheap enough for exit paths
/// (one map insert under an uncontended mutex + one atomic counter add) but
/// must not be called per iteration — detectors aggregate first.
class HealthMonitor {
 public:
  /// Records one anomaly occurrence for `solver`: bumps
  /// `health.<solver>.<anomaly>` in MetricsRegistry::global(), appends a
  /// flight-recorder record (`value`/`iteration` attached), and emits an
  /// `anomaly` trace event when `sink` is non-null.
  void report(Anomaly anomaly, const char* solver, TraceSink* sink = nullptr,
              double value = 0.0, double iteration = 0.0);

  /// Per-solver-kind anomaly counts: solver → anomaly name → count.
  [[nodiscard]] std::map<std::string, std::map<std::string, std::uint64_t>>
  rollup() const;

  /// Total reports across all solvers and kinds.
  [[nodiscard]] std::uint64_t total() const;

  /// Drops all rollup state (tests). Metrics counters are reset separately
  /// via MetricsRegistry::reset().
  void reset();

  /// The process-wide monitor.
  static HealthMonitor& global();

 private:
  mutable std::mutex mutex_;  // memlint:allow(R1): monitor-internal lock
  std::map<std::string, std::map<std::string, std::uint64_t>> counts_;
};

}  // namespace memlp::obs
