// Software primal-dual interior-point solver (§3.1).
//
// This is the paper's software baseline ("PDIP implemented in Matlab"): each
// iteration assembles the full Newton system of Eq. (12) — 2(n+m) equations —
// and solves it with LU decomposition, the O(N³) step that the crossbar
// replaces with an O(1) analog settle. Termination and infeasibility
// detection follow §3.1: stop when primal infeasibility, dual infeasibility,
// and the duality gap are all small; declare infeasibility when an iterate
// diverges beyond a large bound (unbounded dual ⇒ infeasible primal and vice
// versa).
#pragma once

#include "lp/problem.hpp"
#include "lp/result.hpp"

namespace memlp::obs {
class TraceSink;
}

namespace memlp::core {

/// Tuning of the software PDIP method (defaults follow the text).
struct PdipOptions {
  /// Mehrotra predictor–corrector (extension): an affine predictor step
  /// chooses the centering weight adaptively and a corrector reuses the
  /// iteration's factorization; typically halves the iteration count.
  /// Off by default — the paper's plain µ rule (Eq. 8).
  bool predictor_corrector = false;
  /// δ of Eq. (8), in (0, 1).
  double delta = 0.1;
  /// r of Eq. (11) — step-length safety ratio, slightly below 1.
  double step_ratio = 0.9;
  /// ε_b: primal-infeasibility tolerance (relative to 1 + ‖b‖_inf).
  double eps_primal = 1e-8;
  /// ε_c: dual-infeasibility tolerance (relative to 1 + ‖c‖_inf).
  double eps_dual = 1e-8;
  /// ε_g: duality-gap tolerance (relative to 1 + |cᵀx|).
  double eps_gap = 1e-8;
  std::size_t max_iterations = 200;
  /// Divergence bound for the infeasibility test (max |x_i|, |y_j|).
  double divergence_bound = 1e8;
  /// Structured trace destination (see obs/trace.hpp): one `iteration`
  /// event per PDIP iteration plus a final `solve_summary`. nullptr (the
  /// default) falls back to the process-wide MEMLP_TRACE sink; with neither
  /// set, instrumentation is skipped entirely. The crossbar solvers
  /// (XbarPdipOptions / LsPdipOptions) inherit this field through their
  /// embedded PdipOptions.
  obs::TraceSink* trace = nullptr;
};

/// Solves the LP with the software PDIP method. `wall_seconds` is measured.
lp::SolveResult solve_pdip(const lp::LinearProgram& problem,
                           const PdipOptions& options = {});

}  // namespace memlp::core
