// Two-array least-squares NewtonSystem policy (core/ls_pdip.hpp's solver):
// M1 = [A RU; RL Aᵀ] solves for [∆x; ∆y], the slack directions come from the
// diagonal M2 = diag([x̂; ŷ]) (Eq. 16b) or the division-free kStable scheme.
//
// ENGINE-INTERNAL: include only from src/core/ (memlint rule R7); everything
// else goes through core/ls_pdip.hpp or the memlp::engine registry.
#pragma once

#include <span>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/ls_pdip.hpp"
#include "core/negfree.hpp"
#include "crossbar/amplifier.hpp"
#include "lp/problem.hpp"
#include "obs/trace.hpp"

namespace memlp::core {

/// NewtonSystem over the two least-squares arrays:
///   begin_attempt  — resets M1's corner diagonals (schur mode) and programs
///                    M1, and M2 when the solve reads it (fresh variation
///                    draws);
///   begin_iteration — caps the state denominators and re-writes M1's corner
///                    diagonals, O(N) cells;
///   measure        — r1 = fixed1 − M1·[x; y] (Eq. 17a) plus, in schur mode,
///                    one extra MVM to isolate the true infeasibilities;
///   solve          — one M1 settle for [∆x; ∆y], then slack recovery via
///                    the kStable MVMs or an M2 settle.
class LsNewton final : public AnalogNewtonSystem {
 public:
  /// `backend2` is the M2 array, or nullptr when the slack recovery never
  /// reads it (schur mode with kStable recovery).
  LsNewton(const lp::LinearProgram& problem, const LsPdipOptions& options,
           NegativeFreeSystem& negfree1, AnalogBackend& backend1,
           AnalogBackend* backend2, xbar::AmplifierBank& amps);

  void begin_attempt(const PdipState& state, std::size_t attempt_index,
                     bool reuse_array, BackendStats& programming,
                     obs::TraceSink* sink) override;
  void begin_iteration(const PdipState& state, std::size_t iteration) override;
  Residuals measure(const PdipState& state, double mu) override;
  NewtonStep solve(const PdipState& state, double mu,
                   std::span<const double> corr1,
                   std::span<const double> corr2,
                   bool reuse_measured_rhs) override;

  void snapshot_counters() override;
  void annotate_counters(obs::PhaseSpan& span) override;
  void describe(XbarSolveStats& stats) const override;
  void collect_stats(XbarSolveStats& stats) const override;

 private:
  const lp::LinearProgram& problem_;
  const LsPdipOptions& options_;
  NegativeFreeSystem& negfree1_;
  AnalogBackend& backend1_;
  AnalogBackend* backend2_;  ///< nullptr when M2 is never read.
  xbar::AmplifierBank& amps_;
  bool schur_;
  Vec x_hat_;  ///< capped denominators of this iteration (see capped_x/y).
  Vec y_hat_;
  Vec ms1_;          ///< this iteration's MVM read-out M1·[x; y].
  Vec r1_;           ///< this iteration's measured system-1 rhs.
  Vec primal_resid_;  ///< b − Ax − w (schur mode; reused by kStable recovery).
  Vec dual_resid_;    ///< c − Aᵀy + z.
  BackendStats before_it1_;
  BackendStats before_it2_;
  xbar::AmplifierStats amps_before_;
};

}  // namespace memlp::core
