#include "core/newton_software.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profiler.hpp"

namespace memlp::core {
namespace {

/// Subtracts Mehrotra's second-order corrections from the complementarity
/// rows of an Eq. (9) right-hand side.
void apply_corrections(const KktLayout& layout, std::span<const double> corr1,
                       std::span<const double> corr2, Vec& rhs) {
  for (std::size_t j = 0; j < corr1.size(); ++j)
    rhs[layout.row_xz() + j] -= corr1[j];
  for (std::size_t i = 0; i < corr2.size(); ++i)
    rhs[layout.row_yw() + i] -= corr2[i];
}

/// ‖A‖₁ (max column absolute sum) — pairs with LuFactorization's Hager
/// ‖A⁻¹‖₁ estimate for a condition-number estimate. Traced path only.
double matrix_norm_1(const Matrix& a) {
  double best = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += std::abs(a(i, j));
    best = std::max(best, sum);
  }
  return best;
}

}  // namespace

SoftwareNewton::SoftwareNewton(const lp::LinearProgram& problem)
    : problem_(problem),
      layout_{problem.num_variables(), problem.num_constraints()},
      kkt_(assemble_kkt(problem, PdipState::ones(layout_.n, layout_.m))) {}

Residuals SoftwareNewton::measure(const PdipState& state, double /*mu*/) {
  Residuals res;
  res.primal_inf = problem_.primal_infeasibility(state.x, state.w);
  res.dual_inf = problem_.dual_infeasibility(state.y, state.z);
  return res;
}

void SoftwareNewton::prepare(const PdipState& state) {
  obs::ProfileSpan factor_span("factorize");
  update_kkt_diagonals(kkt_, problem_, state);
  lu_.emplace(kkt_);
  if (lu_->singular()) lu_.reset();
}

std::optional<double> SoftwareNewton::condition() {
  // Newton-system condition estimate, traced path only: Hager's ‖A⁻¹‖₁
  // estimate × ‖A‖₁ of the KKT matrix.
  if (lu_) {
    if (const auto inv_norm = lu_->inverse_norm_estimate())
      return *inv_norm * matrix_norm_1(kkt_);
  }
  return std::nullopt;
}

NewtonStep SoftwareNewton::solve(const PdipState& state, double mu,
                                 std::span<const double> corr1,
                                 std::span<const double> corr2,
                                 bool /*reuse_measured_rhs*/) {
  obs::ProfileSpan newton_span("newton");
  if (!lu_) return {std::nullopt, true};
  Vec rhs = kkt_rhs(problem_, state, mu);
  apply_corrections(layout_, corr1, corr2, rhs);
  return {split_step(layout_, lu_->solve(rhs)), true};
}

}  // namespace memlp::core
