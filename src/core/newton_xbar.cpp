#include "core/newton_xbar.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/ops.hpp"
#include "obs/profiler.hpp"

namespace memlp::core {
namespace {

/// Writes the current X, Y, Z, W diagonal blocks into both the bookkeeping
/// structure and the analog backend. Cell count: 2(n+m) — the O(N) update
/// of §3.5 (the crossbar itself skips cells whose level is unchanged).
/// `write_floor` keeps every diagonal cell at one representable conductance
/// level or above: near convergence both x_j and z_j shrink like √µ, and if
/// both quantized to level zero their complementarity row would go all-zero
/// and the array could no longer settle.
void write_diagonal_blocks(const KktLayout& layout, const PdipState& state,
                           NegativeFreeSystem& negfree,
                           AnalogBackend& backend, bool also_backend,
                           double write_floor) {
  // The backend writes go out as ONE batched controller transaction: a
  // single aggregated ledger charge and one settle-cache notification pass
  // instead of 2(n+m) rounds of per-cell bookkeeping.
  std::vector<xbar::CellUpdate> updates;
  if (also_backend) updates.reserve(2 * (layout.n + layout.m));
  const auto put = [&](std::size_t i, std::size_t j, double value) {
    value = std::max(value, write_floor);
    negfree.update_base_cell(i, j, value);
    if (also_backend) updates.push_back({i, j, value});
  };
  for (std::size_t j = 0; j < layout.n; ++j) {
    put(layout.row_xz() + j, layout.col_x() + j, state.z[j]);
    put(layout.row_xz() + j, layout.col_z() + j, state.x[j]);
  }
  for (std::size_t i = 0; i < layout.m; ++i) {
    put(layout.row_yw() + i, layout.col_y() + i, state.w[i]);
    put(layout.row_yw() + i, layout.col_w() + i, state.y[i]);
  }
  if (also_backend) backend.update_cells(updates);
}

}  // namespace

XbarNewton::XbarNewton(const lp::LinearProgram& problem,
                       const XbarPdipOptions& options, const KktLayout& layout,
                       NegativeFreeSystem& negfree, AnalogBackend& backend,
                       xbar::AmplifierBank& amps)
    : problem_(problem),
      options_(options),
      layout_(layout),
      negfree_(negfree),
      backend_(backend),
      amps_(amps),
      fronts_(backend) {}

void XbarNewton::begin_attempt(const PdipState& state,
                               std::size_t attempt_index, bool reuse_array,
                               BackendStats& programming,
                               obs::TraceSink* sink) {
  const double full_scale =
      options_.full_scale_headroom * negfree_.matrix().max_abs();
  // 0.75 of one level step: just enough that the cell rounds to level 1
  // rather than level 0, with minimal extra distortion.
  write_floor_ =
      0.75 * full_scale /
      static_cast<double>(options_.hardware.crossbar.conductance_levels - 1);
  if (reuse_array) {
    // Session reuse: the array already holds M's structural blocks; only the
    // O(N) state diagonals need (re)writing.
    obs::ProfileSpan write_span("write_state");
    write_diagonal_blocks(layout_, state, negfree_, backend_,
                          /*also_backend=*/true, write_floor_);
  } else {
    {
      obs::ProfileSpan write_span("write_state");
      write_diagonal_blocks(layout_, state, negfree_, backend_,
                            /*also_backend=*/false, write_floor_);
    }
    obs::PhaseSpan span(sink, "xbar", "programming");
    span.note("attempt", attempt_index);
    const BackendStats before_program = backend_.stats();
    backend_.program(negfree_.matrix(), full_scale,
                     newton_pivot_plan(layout_, negfree_));
    const BackendStats programmed = backend_.stats().since(before_program);
    programming += programmed;
    annotate_backend_stats(span, programmed);
  }
}

void XbarNewton::begin_iteration(const PdipState& state,
                                 std::size_t iteration) {
  if (iteration > 1) {
    obs::ProfileSpan write_span("write_state");
    write_diagonal_blocks(layout_, state, negfree_, backend_,
                          /*also_backend=*/true, write_floor_);
  }
}

Vec XbarNewton::rhs_at(double mu_target) const {
  const std::size_t n = layout_.n;
  const std::size_t m = layout_.m;
  Vec fixed(negfree_.dim(), 0.0);
  std::copy(problem_.b.begin(), problem_.b.end(),
            fixed.begin() + static_cast<std::ptrdiff_t>(layout_.row_primal()));
  std::copy(problem_.c.begin(), problem_.c.end(),
            fixed.begin() + static_cast<std::ptrdiff_t>(layout_.row_dual()));
  std::fill_n(fixed.begin() + static_cast<std::ptrdiff_t>(layout_.row_xz()),
              n + m, mu_target);
  Vec rhs = amps_.sub(fixed, ms_);
  // The augmentation rows are exact zeros by construction (Eq. 15a); the
  // controller does not measure them.
  std::fill(rhs.begin() + static_cast<std::ptrdiff_t>(layout_.dim()),
            rhs.end(), 0.0);
  return rhs;
}

Residuals XbarNewton::measure(const PdipState& state, double mu) {
  // r = [b; c; µe; µe; 0] − M·s with rows 3/4 halved (Eq. 15a/15b).
  const std::size_t n = layout_.n;
  const std::size_t m = layout_.m;
  const Vec s = concat({state.x, state.y, state.w, state.z});
  // DAC at the state input; the MVM output stays analog into the amps.
  obs::ProfileSpan mvm_span("mvm");
  ms_ = backend_.multiply(negfree_.extend(s),
                          AnalogBackend::IoBoundary::kInputOnly);
  mvm_span.close();
  {
    const Vec halved = amps_.halve(
        std::span<const double>(ms_).subspan(layout_.row_xz(), n + m));
    std::copy(halved.begin(), halved.end(),
              ms_.begin() + static_cast<std::ptrdiff_t>(layout_.row_xz()));
  }
  r_ = rhs_at(mu);
  Residuals res;
  res.primal_inf =
      norm_inf(std::span<const double>(r_).subspan(layout_.row_primal(), m));
  res.dual_inf =
      norm_inf(std::span<const double>(r_).subspan(layout_.row_dual(), n));
  return res;
}

NewtonStep XbarNewton::solve(const PdipState& /*state*/, double mu,
                             std::span<const double> corr1,
                             std::span<const double> corr2,
                             bool reuse_measured_rhs) {
  Vec r;
  const Vec* rhs = &r_;
  if (!reuse_measured_rhs) {
    // Corrector rhs: retarget µ and subtract ∆X_aff∆Z_aff e (amps).
    r = rhs_at(mu);
    for (std::size_t j = 0; j < corr1.size(); ++j)
      r[layout_.row_xz() + j] -= corr1[j];
    for (std::size_t i = 0; i < corr2.size(); ++i)
      r[layout_.row_yw() + i] -= corr2[i];
    rhs = &r;
  }
  obs::ProfileSpan settle_span("settle");
  const auto delta_aug =
      backend_.solve(*rhs, AnalogBackend::IoBoundary::kOutputOnly);
  settle_span.close();
  fronts_.record();
  if (!delta_aug) return {std::nullopt, true};
  return {split_step(layout_, negfree_.restrict(*delta_aug)), true};
}

Vec XbarNewton::elementwise(std::span<const double> a,
                            std::span<const double> b) {
  return amps_.multiply_elementwise(a, b);
}

void XbarNewton::snapshot_counters() {
  before_iterations_ = backend_.stats();
  amps_before_ = amps_.stats();
}

void XbarNewton::annotate_counters(obs::PhaseSpan& span) {
  // The amplifier bank sits outside the backend on single-crossbar runs;
  // merge its delta so the phase covers all analog traffic.
  BackendStats delta = backend_.stats().since(before_iterations_);
  delta.amps += amps_.stats().since(amps_before_);
  annotate_backend_stats(span, delta);
}

void XbarNewton::describe(XbarSolveStats& stats) const {
  stats.system_dim = negfree_.dim();
  stats.compensations = negfree_.num_compensations();
}

void XbarNewton::collect_stats(XbarSolveStats& stats) const {
  stats.backend = backend_.stats();
  stats.amps = amps_.stats();
  stats.settle_fronts = fronts_.stats();
}

}  // namespace memlp::core
