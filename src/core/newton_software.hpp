// Software NewtonSystem policy (core/pdip.hpp's solver): exact residuals
// plus one dense LU of the full 2(n+m) Eq. (12) KKT system per iteration.
//
// ENGINE-INTERNAL: include only from src/core/ (memlint rule R7); everything
// else goes through core/pdip.hpp or the memlp::engine registry.
#pragma once

#include <optional>
#include <span>

#include "core/engine.hpp"
#include "core/kkt.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "lp/problem.hpp"

namespace memlp::core {

/// NewtonSystem over exact software arithmetic: measure() evaluates the true
/// infeasibilities, prepare() runs the per-iteration factorization
/// ("factorize" profiler phase), solve() one back-substitution ("newton").
class SoftwareNewton final : public NewtonSystem {
 public:
  explicit SoftwareNewton(const lp::LinearProgram& problem);

  Residuals measure(const PdipState& state, double mu) override;
  void prepare(const PdipState& state) override;
  std::optional<double> condition() override;
  NewtonStep solve(const PdipState& state, double mu,
                   std::span<const double> corr1,
                   std::span<const double> corr2,
                   bool reuse_measured_rhs) override;

 private:
  const lp::LinearProgram& problem_;
  KktLayout layout_;
  Matrix kkt_;  ///< assembled once; diagonals updated per iteration.
  std::optional<LuFactorization> lu_;
};

}  // namespace memlp::core
