// Result type shared by every LP solver in memlp (simplex, software PDIP,
// and both crossbar solvers), so benches and tests treat them uniformly.
#pragma once

#include "lp/problem.hpp"

namespace memlp::lp {

/// Outcome of one solve.
struct SolveResult {
  SolveStatus status = SolveStatus::kNumericalFailure;
  Vec x;  ///< primal solution (empty unless kOptimal).
  Vec y;  ///< dual solution (may be empty for solvers that do not track it).
  Vec w;  ///< primal slacks (PDIP solvers).
  Vec z;  ///< dual slacks (PDIP solvers).
  double objective = 0.0;
  std::size_t iterations = 0;  ///< PDIP iterations or simplex pivots.
  /// Host wall-clock of the solve, filled by every solver. For the crossbar
  /// solvers it is the simulator's time; their modelled hardware latency
  /// comes from perf::HardwareModel instead.
  double wall_seconds = 0.0;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::kOptimal;
  }
};

/// Relative objective error against a reference optimum, the paper's
/// accuracy metric (§4.3): |obj − ref| / max(1, |ref|).
[[nodiscard]] inline double relative_error(double objective,
                                           double reference) noexcept {
  const double denom = reference < 0.0 ? -reference : reference;
  return (objective > reference ? objective - reference
                                : reference - objective) /
         (denom < 1.0 ? 1.0 : denom);
}

}  // namespace memlp::lp
