// Crossbar NewtonSystem policy (core/xbar_pdip.hpp's solver): one augmented
// negative-free array holds the whole Eq. (14a) system; measure() is one
// analog MVM and solve() one settle.
//
// ENGINE-INTERNAL: include only from src/core/ (memlint rule R7); everything
// else goes through core/xbar_pdip.hpp or the memlp::engine registry.
#pragma once

#include <span>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/kkt.hpp"
#include "core/negfree.hpp"
#include "core/xbar_pdip.hpp"
#include "crossbar/amplifier.hpp"
#include "lp/problem.hpp"
#include "obs/trace.hpp"

namespace memlp::core {

/// NewtonSystem over the single augmented crossbar:
///   begin_attempt  — (re)writes the state diagonals and programs the array
///                    unless it already holds M (session reuse);
///   begin_iteration — O(N) re-write of the X, Y, Z, W diagonal blocks;
///   measure        — r = [b; c; µe; µe; 0] − M·s with rows 3/4 halved
///                    (Eq. 15a/15b), cached for the plain settle;
///   solve          — one settle M·∆s = r (rhs re-targeted through the amps
///                    for the affine/corrector settles).
class XbarNewton final : public AnalogNewtonSystem {
 public:
  XbarNewton(const lp::LinearProgram& problem, const XbarPdipOptions& options,
             const KktLayout& layout, NegativeFreeSystem& negfree,
             AnalogBackend& backend, xbar::AmplifierBank& amps);

  void begin_attempt(const PdipState& state, std::size_t attempt_index,
                     bool reuse_array, BackendStats& programming,
                     obs::TraceSink* sink) override;
  void begin_iteration(const PdipState& state, std::size_t iteration) override;
  Residuals measure(const PdipState& state, double mu) override;
  NewtonStep solve(const PdipState& state, double mu,
                   std::span<const double> corr1,
                   std::span<const double> corr2,
                   bool reuse_measured_rhs) override;
  Vec elementwise(std::span<const double> a,
                  std::span<const double> b) override;

  void snapshot_counters() override;
  void annotate_counters(obs::PhaseSpan& span) override;
  void describe(XbarSolveStats& stats) const override;
  void collect_stats(XbarSolveStats& stats) const override;

 private:
  /// r at a given centering weight: the µ rows of the constant vector are
  /// retargeted by the amps without another settle.
  [[nodiscard]] Vec rhs_at(double mu_target) const;

  const lp::LinearProgram& problem_;
  const XbarPdipOptions& options_;
  const KktLayout& layout_;
  NegativeFreeSystem& negfree_;
  AnalogBackend& backend_;
  xbar::AmplifierBank& amps_;
  double write_floor_ = 0.0;
  Vec ms_;  ///< this iteration's halved MVM read-out M·s.
  Vec r_;   ///< this iteration's measured rhs (at the Eq. (8) µ).
  BackendStats before_iterations_;
  xbar::AmplifierStats amps_before_;
  SettleFrontLog fronts_;
};

}  // namespace memlp::core
