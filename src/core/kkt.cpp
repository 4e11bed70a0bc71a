#include "core/kkt.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "core/negfree.hpp"
#include "linalg/ops.hpp"

namespace memlp::core {

PdipState PdipState::ones(std::size_t n, std::size_t m) {
  PdipState state;
  state.x.assign(n, 1.0);
  state.y.assign(m, 1.0);
  state.w.assign(m, 1.0);
  state.z.assign(n, 1.0);
  return state;
}

double PdipState::gap() const { return dot(z, x) + dot(y, w); }

double PdipState::mu(double delta) const {
  return delta * gap() / static_cast<double>(x.size() + y.size());
}

void PdipState::clamp_floor(double floor) {
  const auto clamp = [floor](Vec& v) {
    for (double& value : v) value = std::max(value, floor);
  };
  clamp(x);
  clamp(y);
  clamp(w);
  clamp(z);
}

PivotPlan newton_pivot_plan(const KktLayout& layout,
                            const NegativeFreeSystem& negfree) {
  MEMLP_EXPECT(negfree.base_dim() == layout.dim());
  const std::size_t base = layout.dim();
  PivotPlan plan;
  plan.reserve(negfree.dim());
  for (std::size_t l = 0; l < negfree.num_compensations(); ++l)
    plan.push_back({.row = base + l, .column = base + l});
  for (std::size_t j = 0; j < layout.n; ++j)
    plan.push_back({.row = layout.row_xz() + j,
                    .column = layout.col_x() + j,
                    .alternative = layout.col_z() + j});
  for (std::size_t i = 0; i < layout.m; ++i)
    plan.push_back({.row = layout.row_yw() + i,
                    .column = layout.col_y() + i,
                    .alternative = layout.col_w() + i});
  for (std::size_t i = 0; i < layout.m; ++i)
    plan.push_back({.row = layout.row_primal() + i,
                    .column = layout.col_w() + i});
  for (std::size_t j = 0; j < layout.n; ++j)
    plan.push_back({.row = layout.row_dual() + j,
                    .column = layout.col_z() + j});
  return plan;
}

Matrix assemble_kkt(const lp::LinearProgram& problem,
                    const PdipState& state) {
  const KktLayout layout{problem.num_variables(), problem.num_constraints()};
  const std::size_t n = layout.n;
  const std::size_t m = layout.m;
  Matrix kkt(layout.dim(), layout.dim());

  // CSR iteration: only stored entries are written, structural zeros stay
  // zero — identical to the old dense fill, O(nnz) instead of O(m·n).
  const CsrMatrix& a = problem.a;
  const auto offsets = a.row_offsets();
  const auto cols = a.column_indices();
  const auto values = a.values();
  // Row block 1: A·∆x + I·∆w.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k)
      kkt(layout.row_primal() + i, layout.col_x() + cols[k]) = values[k];
    kkt(layout.row_primal() + i, layout.col_w() + i) = 1.0;
  }
  // Row block 2: Aᵀ·∆y − I·∆z.
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k)
      kkt(layout.row_dual() + cols[k], layout.col_y() + i) = values[k];
  for (std::size_t j = 0; j < n; ++j)
    kkt(layout.row_dual() + j, layout.col_z() + j) = -1.0;
  update_kkt_diagonals(kkt, problem, state);
  return kkt;
}

void update_kkt_diagonals(Matrix& kkt, const lp::LinearProgram& problem,
                          const PdipState& state) {
  const KktLayout layout{problem.num_variables(), problem.num_constraints()};
  MEMLP_EXPECT(kkt.rows() == layout.dim() && kkt.cols() == layout.dim());
  const std::size_t n = layout.n;
  const std::size_t m = layout.m;
  // Row block 3: Z·∆x + X·∆z.
  for (std::size_t j = 0; j < n; ++j) {
    kkt(layout.row_xz() + j, layout.col_x() + j) = state.z[j];
    kkt(layout.row_xz() + j, layout.col_z() + j) = state.x[j];
  }
  // Row block 4: W·∆y + Y·∆w.
  for (std::size_t i = 0; i < m; ++i) {
    kkt(layout.row_yw() + i, layout.col_y() + i) = state.w[i];
    kkt(layout.row_yw() + i, layout.col_w() + i) = state.y[i];
  }
}

Vec kkt_rhs(const lp::LinearProgram& problem, const PdipState& state,
            double mu) {
  const KktLayout layout{problem.num_variables(), problem.num_constraints()};
  Vec rhs(layout.dim(), 0.0);
  const Vec ax = problem.a.multiply(state.x);
  const Vec aty = problem.a.multiply_transposed(state.y);
  for (std::size_t i = 0; i < layout.m; ++i)
    rhs[layout.row_primal() + i] = problem.b[i] - ax[i] - state.w[i];
  for (std::size_t j = 0; j < layout.n; ++j)
    rhs[layout.row_dual() + j] = problem.c[j] - aty[j] + state.z[j];
  for (std::size_t j = 0; j < layout.n; ++j)
    rhs[layout.row_xz() + j] = mu - state.x[j] * state.z[j];
  for (std::size_t i = 0; i < layout.m; ++i)
    rhs[layout.row_yw() + i] = mu - state.y[i] * state.w[i];
  return rhs;
}

StepDirection split_step(const KktLayout& layout,
                         std::span<const double> delta) {
  MEMLP_EXPECT(delta.size() == layout.dim());
  StepDirection step;
  step.dx = slice(delta, layout.col_x(), layout.n);
  step.dy = slice(delta, layout.col_y(), layout.m);
  step.dw = slice(delta, layout.col_w(), layout.m);
  step.dz = slice(delta, layout.col_z(), layout.n);
  return step;
}

double step_length(const PdipState& state, const StepDirection& step,
                   double r, double dead_floor) {
  MEMLP_EXPECT(r > 0.0 && r < 1.0);
  double blocking = 0.0;  // max_i (−∆v_i / v_i)
  const auto scan = [&blocking, dead_floor](const Vec& v, const Vec& dv) {
    for (std::size_t i = 0; i < v.size(); ++i)
      if (v[i] > dead_floor)
        blocking = std::max(blocking, -dv[i] / v[i]);
  };
  scan(state.x, step.dx);
  scan(state.y, step.dy);
  scan(state.w, step.dw);
  scan(state.z, step.dz);
  if (blocking <= 0.0) return r;
  return r * std::min(1.0 / blocking, 1.0);
}

StepLengths step_lengths(const PdipState& state, const StepDirection& step,
                         double r, double dead_floor) {
  MEMLP_EXPECT(r > 0.0 && r < 1.0);
  const auto side = [dead_floor, r](const Vec& a, const Vec& da, const Vec& b,
                                    const Vec& db) {
    double blocking = 0.0;  // max_i (−∆v_i / v_i) over the pair
    const auto scan = [&blocking, dead_floor](const Vec& v, const Vec& dv) {
      for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i] > dead_floor)
          blocking = std::max(blocking, -dv[i] / v[i]);
    };
    scan(a, da);
    scan(b, db);
    if (blocking <= 0.0) return r;
    return r * std::min(1.0 / blocking, 1.0);
  };
  StepLengths alphas;
  alphas.alpha_p = side(state.x, step.dx, state.w, step.dw);
  alphas.alpha_d = side(state.y, step.dy, state.z, step.dz);
  return alphas;
}

void apply_step(PdipState& state, const StepDirection& step, double theta) {
  axpy(theta, step.dx, state.x);
  axpy(theta, step.dy, state.y);
  axpy(theta, step.dw, state.w);
  axpy(theta, step.dz, state.z);
}

std::optional<lp::SolveStatus> classify_divergence(const PdipState& state,
                                                   double x_bound,
                                                   double y_bound) {
  if (norm_inf(state.y) > y_bound) return lp::SolveStatus::kInfeasible;
  if (norm_inf(state.x) > x_bound) return lp::SolveStatus::kUnbounded;
  return std::nullopt;
}

std::optional<lp::SolveStatus> classify_relative_divergence(
    const PdipState& state, double b_scale, double c_scale) {
  const double x_norm = norm_inf(state.x);
  const double y_norm = norm_inf(state.y);
  if (y_norm > 100.0 * (1.0 + x_norm) && y_norm > 10.0 * c_scale)
    return lp::SolveStatus::kInfeasible;
  if (x_norm > 100.0 * (1.0 + y_norm) && x_norm > 10.0 * b_scale)
    return lp::SolveStatus::kUnbounded;
  return std::nullopt;
}

}  // namespace memlp::core
