// memlp::core::PdipEngine — the single PDIP iteration loop (Algorithm 1).
//
// The paper's algorithm is one loop whose only hardware-dependent step is
// "solve the Newton system": residual measurement, the Eq. (8) µ schedule,
// the Mehrotra predictor-corrector, the Eq. (11) step length, convergence /
// divergence / stall classification, and the obs instrumentation are shared
// by every solver. This header owns that loop; the per-realization math —
// full-KKT LU, crossbar settle, two-system
// least-squares scheme — plugs in through the NewtonSystem policy interface.
// The public entry points (core/pdip.hpp, core/xbar_pdip.hpp,
// core/ls_pdip.hpp) are thin wrappers that build a policy plus an
// EngineConfig and contain no per-iteration math.
//
// ENGINE-INTERNAL: include this (and core/newton_*.hpp) only from src/core/
// — everything else goes through the wrappers or the memlp::engine registry
// (enforced by memlint rule R7, docs/static-analysis.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/kkt.hpp"
#include "core/pdip.hpp"
#include "core/scaling.hpp"
#include "core/xbar_pdip.hpp"
#include "linalg/matrix.hpp"
#include "lp/problem.hpp"
#include "obs/trace.hpp"

namespace memlp::core {

/// Residual measurement of one iteration (∞-norms of the primal and dual
/// infeasibilities, as the realization measures them — exact for software,
/// from the analog read-out for the crossbar policies).
struct Residuals {
  double primal_inf = 0.0;
  double dual_inf = 0.0;
};

/// Result of one Newton solve. `classify_on_failure` tells the engine
/// whether a missing step should run the divergence classifier before being
/// reported as a numerical/hardware failure (the least-squares recovery
/// solve opts out: its M2 system is diagonal, so a failed settle means a
/// broken array, never a diverged iterate).
struct NewtonStep {
  std::optional<StepDirection> step;
  bool classify_on_failure = true;
};

/// Policy interface: how one PDIP iteration realizes the Newton system.
/// The engine drives exactly this sequence per iteration:
///   begin_iteration → measure → prepare → condition → solve (1–3 times,
///   depending on the Mehrotra mode) — so policies may cache intermediates
///   (factorizations, analog read-outs) across the calls of one iteration.
class NewtonSystem {
 public:
  virtual ~NewtonSystem();

  /// Start-of-iteration hook, before any measurement: the analog policies
  /// rewrite the O(N) state diagonals of the programmed array here.
  virtual void begin_iteration(const PdipState& state, std::size_t iteration);

  /// Measures the primal/dual infeasibilities at centering weight `mu`
  /// (analog policies also cache the right-hand side they read out here).
  virtual Residuals measure(const PdipState& state, double mu) = 0;

  /// Once-per-iteration factorization (software policies; analog settles
  /// need no preparation).
  virtual void prepare(const PdipState& state);

  /// Newton-system condition estimate for tracing. Only called when a trace
  /// sink is attached — implementations may do O(N²) work here.
  virtual std::optional<double> condition();

  /// Solves the Newton system at centering weight `mu` with Mehrotra's
  /// second-order corrections subtracted from the complementarity rows
  /// (empty spans = plain Newton). `reuse_measured_rhs` is true when `mu`
  /// equals the weight passed to measure() — analog policies then reuse the
  /// right-hand side they already assembled instead of re-deriving it.
  virtual NewtonStep solve(const PdipState& state, double mu,
                           std::span<const double> corr1,
                           std::span<const double> corr2,
                           bool reuse_measured_rhs) = 0;

  /// Elementwise product for the Mehrotra corrections (∆X_aff·∆Z_aff·e).
  /// Default: exact software hadamard; the crossbar policy routes it
  /// through the analog multiplier bank so op counters stay faithful.
  virtual Vec elementwise(std::span<const double> a, std::span<const double> b);
};

/// How the Mehrotra predictor-corrector composes with the plain step.
enum class MehrotraMode {
  /// Software scheme: affine predictor first; the corrector solve IS the
  /// step (an affine failure fails the iteration — the factorization is
  /// shared, so a second solve cannot succeed where the first failed).
  kAffineFirst,
  /// Analog scheme: plain settle first (always a usable fallback), then
  /// affine + corrector settles; the corrector replaces the plain step only
  /// when its settle succeeds.
  kCorrectorRefine,
};

/// Per-solver shape of the shared loop. The wrappers translate their public
/// options structs into one of these; see pdip.cpp / xbar_pdip.cpp /
/// ls_pdip.cpp for the three canonical configurations.
struct EngineConfig {
  /// Tag stamped on every IterationRecord (and the phase events).
  const char* solver_name = "pdip";
  /// Honor PdipOptions::predictor_corrector (the least-squares scheme has a
  /// constant step length and no corrector, so it opts out).
  bool supports_mehrotra = true;
  MehrotraMode mehrotra = MehrotraMode::kAffineFirst;
  /// Affine predictor step length: true = the exact boundary step
  /// (max_feasible_theta, software); false = the damped Eq. (11) step with
  /// the dead-component exclusion (analog).
  bool affine_exact = true;
  /// Guard on µ_mean in Mehrotra's σ ratio (analog read-outs can drive the
  /// measured gap to zero; software keeps the exact 0.0).
  double mu_mean_floor = 0.0;
  /// Constant step length θ (§3.4, least-squares scheme). Unset = the
  /// Eq. (11) ratio test with split alpha_p/alpha_d.
  std::optional<double> constant_theta;
  /// Components at or below this are excluded from the Eq. (11) ratio test
  /// (analog: 100·state_floor; see core/kkt.hpp step_lengths).
  double step_dead_floor = 0.0;
  /// Positivity floor clamped after every step (analog only; 0 = off).
  double state_floor = 0.0;
  /// Consecutive θ≈0 steps before the attempt is declared stalled (xbar
  /// frozen-step heuristic; 0 = off).
  std::size_t frozen_limit = 0;

  /// Attempt mode (analog): merit/best-state tracking, the wild-jump retry
  /// guard, the stall window, and divergence-dominance exit classification.
  bool attempt_mode = false;
  /// Merit at or below which a non-converged attempt is still acceptable.
  double acceptance_merit = 0.1;
  /// Iterations without a new best iterate before the attempt stalls.
  std::size_t stall_window = 0;
  /// 1-based attempt tag stamped on IterationRecords (0 = untagged).
  std::size_t attempt_index = 0;
};

/// Outcome of one engine run (software solve, or one analog attempt).
enum class AttemptOutcome {
  kConverged,        ///< residuals below tolerance.
  kStalled,          ///< analog noise floor reached (no recent improvement).
  kInfeasible,       ///< dual iterate diverged.
  kUnbounded,        ///< primal iterate diverged.
  kHardwareFailure,  ///< Newton system unsolvable (singular / failed settle).
  kIterationLimit,
};

/// The shared iteration loop. One instance drives one run over a state; the
/// analog retry driver (solve_analog_pdip below) constructs one per attempt.
class PdipEngine {
 public:
  struct Outcome {
    AttemptOutcome outcome = AttemptOutcome::kIterationLimit;
    /// Lowest-merit iterate seen (attempt mode only).
    PdipState best_state;
    double best_merit = std::numeric_limits<double>::infinity();
    std::size_t iterations = 0;
  };

  PdipEngine(const lp::LinearProgram& problem, const PdipOptions& options,
             const EngineConfig& config, obs::TraceSink* sink);

  /// Runs the loop from `state` (mutated in place; on exit it holds the
  /// final iterate). Emits one `iteration` event per loop entry.
  Outcome run(NewtonSystem& newton, PdipState& state);

 private:
  const lp::LinearProgram& problem_;
  const PdipOptions& options_;
  EngineConfig config_;
  obs::TraceSink* sink_;
  double b_scale_;
  double c_scale_;
  double size_;
};

/// Analog policy extension: per-attempt array lifecycle and hardware
/// counters, driven by solve_analog_pdip's retry loop.
class AnalogNewtonSystem : public NewtonSystem {
 public:
  /// Prepares the array(s) for a fresh attempt from `state` (all-ones):
  /// resets the state diagonals and programs the array unless `reuse_array`
  /// (session reuse) — programming counters accumulate into `programming`.
  virtual void begin_attempt(const PdipState& state, std::size_t attempt_index,
                             bool reuse_array, BackendStats& programming,
                             obs::TraceSink* sink) = 0;

  /// Snapshots the backend/amplifier counters (start of the per-attempt
  /// iteration phase span).
  virtual void snapshot_counters() = 0;

  /// Annotates `span` with the counter delta since snapshot_counters().
  virtual void annotate_counters(obs::PhaseSpan& span) = 0;

  /// Reports the augmented system dimension and compensation-column count.
  virtual void describe(XbarSolveStats& stats) const = 0;

  /// Fills the end-of-solve backend/amplifier totals.
  virtual void collect_stats(XbarSolveStats& stats) const = 0;
};

/// The dense fronts of a backend's settle factorizations over a solve
/// (SettleFrontStats): call record() after every settle; it logs the front
/// of each factorization made since the last call.
class SettleFrontLog {
 public:
  explicit SettleFrontLog(const AnalogBackend& backend)
      : backend_(backend),
        seen_factorizations_(
            backend.stats().settle_cache.full_factorizations) {}

  void record();
  [[nodiscard]] SettleFrontStats stats() const;

 private:
  const AnalogBackend& backend_;
  std::vector<std::size_t> front_dims_;
  std::size_t deferred_pivots_ = 0;
  std::uint64_t seen_factorizations_ = 0;
};

/// Shared shape of the analog retry/acceptance driver (the paper's
/// double-checking scheme, §4.3/§4.5) on top of the engine.
struct AnalogSolveSpec {
  const char* solver_name = "xbar";  ///< phase/summary/metrics tag.
  std::size_t max_retries = 0;
  double acceptance_merit = 0.1;
  /// α of the final constraint check (§3.2).
  double alpha = 1.05;
  /// Process-variation magnitude (widens the final-check α).
  double variation_magnitude = 0.0;
  /// Session flag: when non-null, *array_programmed selects first-attempt
  /// array reuse and is set once the array has been programmed.
  bool* array_programmed = nullptr;
};

/// Runs the full analog solve: retry loop over engine attempts, best-state
/// acceptance against the α-check, unscaling, the extended solve_summary
/// event, and the per-solver metrics counters. `problem` must already be
/// the scaled problem of `scaling`.
XbarSolveOutcome solve_analog_pdip(const lp::LinearProgram& problem,
                                   const ProblemScaling& scaling,
                                   const PdipOptions& options,
                                   const EngineConfig& config,
                                   const AnalogSolveSpec& spec,
                                   AnalogNewtonSystem& newton,
                                   obs::TraceSink* sink);

}  // namespace memlp::core
