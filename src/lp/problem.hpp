// Linear program representation.
//
// The paper's canonical form (§3.1):
//     maximize cᵀx   subject to   A·x ⪯ b  (A ∈ R^{m×n}),  x ⪰ 0,
// with the symmetric dual
//     minimize bᵀy   subject to   Aᵀ·y ⪰ c,               y ⪰ 0.
// Slack variables w (primal) and z (dual) turn the inequalities into the
// equality system of Eq. (6a)/(6b) used by the PDIP method.
#pragma once

#include <string>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace memlp::lp {

/// A linear program in the paper's canonical (inequality) form. The
/// constraint matrix is held in CSR form; assigning a dense Matrix compresses
/// it. Nothing in a LinearProgram is mutable, so a shared problem is safe to
/// read from any thread.
struct LinearProgram {
  CsrMatrix a;  ///< m x n constraint matrix.
  Vec b;        ///< m right-hand sides.
  Vec c;        ///< n objective coefficients (maximization).

  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return a.rows();
  }
  [[nodiscard]] std::size_t num_variables() const noexcept {
    return a.cols();
  }

  /// Throws DimensionError when shapes disagree.
  void validate() const;

  /// cᵀx.
  [[nodiscard]] double objective(std::span<const double> x) const;

  /// The symmetric dual expressed again in canonical max form:
  ///   min bᵀy s.t. Aᵀy ⪰ c, y ⪰ 0   ≡   max (−b)ᵀy s.t. (−Aᵀ)y ⪯ −c, y ⪰ 0.
  [[nodiscard]] LinearProgram dual() const;

  /// ‖A·x + w − b‖_inf — primal infeasibility of an interior-point state.
  [[nodiscard]] double primal_infeasibility(std::span<const double> x,
                                            std::span<const double> w) const;

  /// ‖Aᵀ·y − z − c‖_inf — dual infeasibility.
  [[nodiscard]] double dual_infeasibility(std::span<const double> y,
                                          std::span<const double> z) const;

  /// zᵀx + yᵀw — the duality gap used in the stopping test.
  [[nodiscard]] static double duality_gap(std::span<const double> x,
                                          std::span<const double> z,
                                          std::span<const double> y,
                                          std::span<const double> w);

  /// §3.2 robust feasibility check: A·x ⪯ α·b with α slightly above 1, plus
  /// x ⪰ −tolerance element-wise.
  [[nodiscard]] bool satisfies_constraints(std::span<const double> x,
                                           double alpha = 1.02,
                                           double tolerance = 1e-7) const;
};

/// Outcome classification shared by every solver in memlp.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
};

[[nodiscard]] std::string to_string(SolveStatus status);

}  // namespace memlp::lp
