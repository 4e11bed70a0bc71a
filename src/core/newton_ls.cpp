#include "core/newton_ls.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/ops.hpp"

namespace memlp::core {
namespace {

/// Capped denominators: ŷ_i = max(y_i, w_i/cap) bounds the corner ratio
/// w_i/ŷ_i at `cap` — and the SAME ŷ must be used in the µ./ŷ right-hand
/// side terms, otherwise a capped matrix row faces an uncapped rhs and the
/// step direction is garbage.
Vec capped_y(const PdipState& state, double ratio_cap) {
  Vec y_hat(state.y.size());
  for (std::size_t i = 0; i < y_hat.size(); ++i)
    y_hat[i] = std::max(state.y[i], state.w[i] / ratio_cap);
  return y_hat;
}

Vec capped_x(const PdipState& state, double ratio_cap) {
  Vec x_hat(state.x.size());
  for (std::size_t j = 0; j < x_hat.size(); ++j)
    x_hat[j] = std::max(state.x[j], state.z[j] / ratio_cap);
  return x_hat;
}

/// Writes the current corner diagonals (−w/ŷ and +z/x̂) into the bookkeeping
/// structure and, when `also_backend`, into the analog array — 2(n+m)
/// physical cells, the O(N) per-iteration update of §3.5.
void write_corner_diagonals(const lp::LinearProgram& problem,
                            const PdipState& state,
                            std::span<const double> x_hat,
                            std::span<const double> y_hat,
                            NegativeFreeSystem& negfree1,
                            AnalogBackend& backend1, bool also_backend) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  // One batched controller transaction instead of 2(n+m) per-cell writes.
  std::vector<xbar::CellUpdate> updates;
  if (also_backend) updates.reserve(2 * (n + m));
  const auto put = [&](std::size_t i, std::size_t j, double value) {
    for (const auto& write : negfree1.update_base_cell_signed(i, j, value))
      if (also_backend) updates.push_back({write.row, write.col, write.value});
  };
  for (std::size_t i = 0; i < m; ++i) put(i, n + i, -state.w[i] / y_hat[i]);
  for (std::size_t j = 0; j < n; ++j) put(m + j, j, state.z[j] / x_hat[j]);
  if (also_backend) backend1.update_cells(updates);
}

}  // namespace

LsNewton::LsNewton(const lp::LinearProgram& problem,
                   const LsPdipOptions& options, NegativeFreeSystem& negfree1,
                   AnalogBackend& backend1, AnalogBackend* backend2,
                   xbar::AmplifierBank& amps)
    : problem_(problem),
      options_(options),
      negfree1_(negfree1),
      backend1_(backend1),
      backend2_(backend2),
      amps_(amps),
      schur_(options.m1_mode == M1Mode::kSchurDiagonal) {}

void LsNewton::begin_attempt(const PdipState& state, std::size_t attempt_index,
                             bool /*reuse_array*/, BackendStats& programming,
                             obs::TraceSink* sink) {
  // Reset the corner diagonals to the fresh-state values, then program the
  // whole M1 array once for this attempt (fresh variation draws).
  if (schur_)
    write_corner_diagonals(problem_, state, capped_x(state, options_.ratio_cap),
                           capped_y(state, options_.ratio_cap), negfree1_,
                           backend1_, /*also_backend=*/false);
  obs::PhaseSpan span(sink, "ls", "programming");
  span.note("attempt", attempt_index);
  const BackendStats before1 = backend1_.stats();
  backend1_.program(negfree1_.matrix(),
                    options_.full_scale_headroom * negfree1_.matrix().max_abs());
  BackendStats programmed = backend1_.stats().since(before1);
  if (backend2_ != nullptr) {
    // M2 = diag([x; y]) changes every iteration; program with headroom so
    // the per-iteration writes stay cell-local.
    const BackendStats before2 = backend2_->stats();
    const Matrix m2 = Matrix::diagonal(concat({state.x, state.y}));
    backend2_->program(m2, options_.full_scale_headroom * m2.max_abs());
    programmed += backend2_->stats().since(before2);
  }
  programming += programmed;
  annotate_backend_stats(span, programmed);
}

void LsNewton::begin_iteration(const PdipState& state, std::size_t iteration) {
  x_hat_ = capped_x(state, options_.ratio_cap);
  y_hat_ = capped_y(state, options_.ratio_cap);
  if (schur_ && iteration > 1)
    write_corner_diagonals(problem_, state, x_hat_, y_hat_, negfree1_,
                           backend1_, /*also_backend=*/true);
}

Residuals LsNewton::measure(const PdipState& state, double mu) {
  const std::size_t n = problem_.num_variables();
  const std::size_t m = problem_.num_constraints();

  // --- System 1 right-hand side (Eq. 17a).
  // Schur mode: fixed1 = [b − w − µ./y; c + z + µ./x]; with RU·y ≈ −w and
  // RL·x ≈ z this yields r1 ≈ [b − Ax − µ./y; c − Aᵀy + µ./x].
  // Literal mode: fixed1 = [b − w; c + z] as printed in the paper.
  const Vec s1 = concat({state.x, state.y});
  // DAC at the state input; output stays analog into the amps.
  ms1_ = backend1_.multiply(negfree1_.extend(s1),
                            AnalogBackend::IoBoundary::kInputOnly);
  Vec fixed1(negfree1_.dim(), 0.0);
  {
    Vec bw;
    Vec cz;
    if (schur_) {
      // On a capped row the array holds −w/ŷ (not −w/y), so the constant
      // vector must pair it with w·(y/ŷ): the capped linearization's rhs
      // is then exact and the measured r1 still vanishes at convergence.
      const Vec w_tilde = amps_.divide_elementwise(
          amps_.multiply_elementwise(state.w, state.y), y_hat_);
      const Vec z_tilde = amps_.divide_elementwise(
          amps_.multiply_elementwise(state.z, state.x), x_hat_);
      bw = amps_.sub(amps_.sub(problem_.b, w_tilde),
                     amps_.reciprocal_scale(mu, y_hat_));
      cz = amps_.add(amps_.add(problem_.c, z_tilde),
                     amps_.reciprocal_scale(mu, x_hat_));
    } else {
      bw = amps_.sub(problem_.b, state.w);
      cz = amps_.add(problem_.c, state.z);
    }
    std::copy(bw.begin(), bw.end(), fixed1.begin());
    std::copy(cz.begin(), cz.end(),
              fixed1.begin() + static_cast<std::ptrdiff_t>(m));
  }
  r1_ = amps_.sub(fixed1, ms1_);
  std::fill(r1_.begin() + static_cast<std::ptrdiff_t>(n + m), r1_.end(), 0.0);

  // --- The r1 blocks carry the µ-centring terms and, on capped rows, a
  // w·(1 − y/ŷ) bias — so the controller measures the true infeasibilities
  // with one extra MVM: M1·[x; 0] isolates A·x on the top block (and, by
  // subtraction from M1·[x; y], Aᵀ·y on the bottom).
  Residuals res;
  if (schur_) {
    Vec sx = s1;
    std::fill(sx.begin() + static_cast<std::ptrdiff_t>(n), sx.end(), 0.0);
    const Vec msx = backend1_.multiply(negfree1_.extend(sx));
    const Vec ax = slice(msx, 0, m);
    const Vec aty = amps_.sub(slice(ms1_, m, n), slice(msx, m, n));
    primal_resid_ = amps_.sub(amps_.sub(problem_.b, ax), state.w);
    dual_resid_ = amps_.add(amps_.sub(problem_.c, aty), state.z);
    res.primal_inf = norm_inf(primal_resid_);
    res.dual_inf = norm_inf(dual_resid_);
  } else {
    res.primal_inf = norm_inf(std::span<const double>(r1_).subspan(0, m));
    res.dual_inf = norm_inf(std::span<const double>(r1_).subspan(m, n));
  }
  return res;
}

NewtonStep LsNewton::solve(const PdipState& state, double mu,
                           std::span<const double> /*corr1*/,
                           std::span<const double> /*corr2*/,
                           bool /*reuse_measured_rhs*/) {
  const std::size_t n = problem_.num_variables();
  const std::size_t m = problem_.num_constraints();

  // --- Solve system 1 for [∆x; ∆y].
  const auto ds1_aug =
      backend1_.solve(r1_, AnalogBackend::IoBoundary::kOutputOnly);
  if (!ds1_aug) return {std::nullopt, true};
  const Vec ds1 = negfree1_.restrict(*ds1_aug);
  const std::span<const double> dx(ds1.data(), n);
  const std::span<const double> dy(ds1.data() + n, m);

  // --- Recovery of the slack directions ∆z, ∆w.
  Vec dz;
  Vec dw;
  if (schur_ && options_.recovery == RecoveryMode::kStable) {
    // Division-free recovery via Eq. (9a)/(9b) with two more M1 settles:
    //   ∆w = (b − Ax − w) − A∆x,   ∆z = Aᵀ∆y − (c − Aᵀy + z).
    // The Eq. (16b) diagonal solve divides by x̂, ŷ, which amplifies analog
    // noise by up to ratio_cap on near-zero entries.
    Vec sdx(n + m, 0.0);
    std::copy(dx.begin(), dx.end(), sdx.begin());
    const Vec ms_dx = backend1_.multiply(negfree1_.extend(sdx));
    Vec sdy(n + m, 0.0);
    std::copy(dy.begin(), dy.end(),
              sdy.begin() + static_cast<std::ptrdiff_t>(n));
    const Vec ms_dy = backend1_.multiply(negfree1_.extend(sdy));
    dw = amps_.sub(primal_resid_, slice(ms_dx, 0, m));
    dz = amps_.sub(slice(ms_dy, m, n), dual_resid_);
  } else {
    // --- System 2 (Eq. 16b): M2 = diag([x̂; ŷ]) solves for [∆z; ∆w].
    // Complementarity drives some x_j towards 0; a diagonal cell below one
    // conductance level would quantize to exactly zero and leave the array
    // singular, so the write driver floors each cell at the representable
    // resolution.
    const double m2_scale =
        std::max({1.0, norm_inf(state.x), norm_inf(state.y)});
    const double representable =
        options_.full_scale_headroom * m2_scale * 1.5 /
        static_cast<double>(options_.hardware.crossbar.conductance_levels - 1);
    std::vector<xbar::CellUpdate> diagonal;
    diagonal.reserve(n + m);
    for (std::size_t j = 0; j < n; ++j)
      diagonal.push_back(
          {j, j, std::max(schur_ ? x_hat_[j] : state.x[j], representable)});
    for (std::size_t i = 0; i < m; ++i)
      diagonal.push_back(
          {n + i, n + i,
           std::max(schur_ ? y_hat_[i] : state.y[i], representable)});
    backend2_->update_cells(diagonal);

    // r2 = [µe; µe] − M2·[z; w] (the XZe / YWe products come from the M2
    // array itself), minus the Z∘∆x / W∘∆y cross terms from the analog
    // multipliers.
    const Vec s2 = concat({state.z, state.w});
    const Vec ms2 =
        backend2_->multiply(s2, AnalogBackend::IoBoundary::kInputOnly);
    Vec r2 = amps_.sub(Vec(n + m, mu), ms2);
    const Vec zdx = amps_.multiply_elementwise(state.z, dx);
    const Vec wdy = amps_.multiply_elementwise(state.w, dy);
    const Vec cross = concat({zdx, wdy});
    r2 = amps_.sub(r2, cross);
    const auto ds2 =
        backend2_->solve(r2, AnalogBackend::IoBoundary::kOutputOnly);
    // The M2 system is diagonal: a failed settle means a broken array, never
    // a diverged iterate — report it without the divergence classifier.
    if (!ds2) return {std::nullopt, /*classify_on_failure=*/false};
    dz = slice(*ds2, 0, n);
    dw = slice(*ds2, n, m);
  }

  StepDirection step;
  step.dx.assign(dx.begin(), dx.end());
  step.dy.assign(dy.begin(), dy.end());
  step.dw = std::move(dw);
  step.dz = std::move(dz);
  return {std::move(step), true};
}

void LsNewton::snapshot_counters() {
  before_it1_ = backend1_.stats();
  if (backend2_ != nullptr) before_it2_ = backend2_->stats();
  amps_before_ = amps_.stats();
}

void LsNewton::annotate_counters(obs::PhaseSpan& span) {
  // Both arrays plus the amplifier bank contribute to the counter delta.
  BackendStats delta = backend1_.stats().since(before_it1_);
  if (backend2_ != nullptr) delta += backend2_->stats().since(before_it2_);
  delta.amps += amps_.stats().since(amps_before_);
  annotate_backend_stats(span, delta);
}

void LsNewton::describe(XbarSolveStats& stats) const {
  stats.system_dim = negfree1_.dim();
  stats.compensations = negfree1_.num_compensations();
}

void LsNewton::collect_stats(XbarSolveStats& stats) const {
  BackendStats merged = backend1_.stats();
  if (backend2_ != nullptr) merged += backend2_->stats();
  stats.backend = merged;
  stats.amps = amps_.stats();
}

}  // namespace memlp::core
