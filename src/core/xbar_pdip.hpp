// Memristor crossbar-based linear program solver (§3.2, Algorithm 1).
//
// Per iteration, entirely in the analog domain:
//   1. the X, Y, Z, W diagonal blocks of the augmented system matrix M
//      (Eq. 14a, built once by NegativeFreeSystem from the Eq. 12 KKT
//      matrix) are re-written on the crossbar — O(N) cell writes;
//   2. the right-hand side r is produced as the difference of the constant
//      vector [b; c; µe; µe; 0] and the crossbar MVM M·s, with the 3rd/4th
//      row blocks halved (Eq. 15a/15b) by summing amplifiers;
//   3. the crossbar solves M·∆s = r in one settle (O(1));
//   4. s ← s + θ·∆s with θ from Eq. (11), µ from Eq. (8).
// Termination reuses the analog r: its first two blocks are exactly the
// primal and dual infeasibilities. Divergence of x or y beyond a large bound
// flags unboundedness/infeasibility (§3.1), and the final solution must pass
// the α-relaxed constraint check A·x ⪯ α·b of §3.2.
//
// Under process variation a solve can stall above tolerance or fail the
// final check; the solver then retries with a freshly programmed crossbar
// (new variation draws), the "double checking scheme" of §4.5.
#pragma once

#include <cstdint>
#include <memory>

#include "core/backend.hpp"
#include "core/pdip.hpp"
#include "lp/problem.hpp"
#include "lp/result.hpp"

namespace memlp::core {

/// Options of the crossbar PDIP solver.
struct XbarPdipOptions {
  /// Algorithmic parameters (δ, r, tolerances, iteration cap, divergence
  /// bound) shared with the software PDIP. Its `predictor_corrector` flag
  /// enables a Mehrotra step on the crossbar too (extension): the corrector
  /// solve reuses the already-programmed array, so it costs one extra
  /// analog settle per iteration and typically saves far more iterations.
  PdipOptions pdip{};
  /// Hardware selection (device, variation, precision, NoC).
  BackendOptions hardware{};
  /// α of the final constraint check (close to but above 1, §3.2).
  double alpha = 1.05;
  /// Mapping headroom: crossbar full-scale = headroom × initial max |M|.
  double full_scale_headroom = 4.0;
  /// Re-solve attempts with fresh variation after a failed attempt.
  std::size_t max_retries = 2;
  /// Accept a stalled iterate as converged when its merit (worst relative
  /// residual) is below this; analog noise floors the achievable residual.
  double acceptance_merit = 0.1;
  /// Stop an attempt when the merit has not improved for this many
  /// iterations (the analog noise floor has been reached).
  std::size_t stall_window = 25;
  /// Strictly-positive floor applied to the state after each update.
  double state_floor = 1e-10;
  /// Seed for every stochastic hardware component.
  std::uint64_t seed = 0x5eed;
};

/// The dense fronts of a solve's settle factorizations (see
/// linalg/lu.hpp): simulator bookkeeping, not hardware operations.
struct SettleFrontStats {
  std::size_t factorizations = 0;   ///< settle factorizations made.
  std::size_t front_dim_p50 = 0;    ///< median front dimension.
  std::size_t front_dim_max = 0;
  std::size_t deferred_pivots = 0;  ///< plan rows deferred, summed.
};

/// Hardware-operation record of one solve (feeds perf::HardwareModel).
struct XbarSolveStats {
  BackendStats backend;           ///< total crossbar/NoC counters.
  /// Counters spent in whole-array programming (the O(N²) initialization
  /// §3.5 excludes from the iterative-latency analysis). The iterative
  /// phase is backend.since(programming).
  BackendStats programming;
  xbar::AmplifierStats amps;      ///< solver-level summing-amp operations.
  std::size_t iterations = 0;     ///< PDIP iterations across all attempts.
  std::size_t attempts = 1;       ///< 1 + retries actually used.
  std::size_t system_dim = 0;     ///< dimension of the augmented matrix M.
  std::size_t compensations = 0;  ///< negative-elimination variables.
  /// Of the system array's settles (ls: of M1; M2 is not recorded).
  SettleFrontStats settle_fronts;
};

/// Result bundle: the LP solution plus the hardware record.
struct XbarSolveOutcome {
  lp::SolveResult result;
  XbarSolveStats stats;
};

/// Solves the LP on the crossbar per Algorithm 1.
XbarSolveOutcome solve_xbar_pdip(const lp::LinearProgram& problem,
                                 const XbarPdipOptions& options = {});

/// Persistent solver context: keeps the programmed array alive across
/// solves. The system matrix M contains only A (and the state diagonals) —
/// b and c enter through the analog right-hand side — so re-solving with
/// the same constraint matrix but new b/c (re-priced routing, changed
/// capacities, rolling-horizon scheduling) costs ZERO array programming:
/// the per-A O(N²) initialization of §3.5 is paid once, and every
/// subsequent solve is purely O(N)-per-iteration.
class XbarPdipSession {
 public:
  explicit XbarPdipSession(XbarPdipOptions options = {});
  ~XbarPdipSession();
  XbarPdipSession(XbarPdipSession&&) noexcept;
  XbarPdipSession& operator=(XbarPdipSession&&) noexcept;

  /// Solves the problem, reusing the programmed array when `problem.a`
  /// matches the previous solve's constraint matrix (values and shape);
  /// otherwise the array is re-programmed transparently.
  XbarSolveOutcome solve(const lp::LinearProgram& problem);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace memlp::core
