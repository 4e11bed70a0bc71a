#include "core/ls_pdip.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/contracts.hpp"
#include "core/engine.hpp"
#include "core/negfree.hpp"
#include "core/newton_ls.hpp"
#include "core/scaling.hpp"
#include "linalg/ops.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace memlp::core {
namespace {

/// Mean |a_ij| over ALL cells (structural zeros included), computed from the
/// CSR values — matches the old dense definition exactly.
double mean_abs(const CsrMatrix& a) {
  double sum = 0.0;
  for (double v : a.values()) sum += std::abs(v);
  const std::size_t count = a.rows() * a.cols();
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// M1 = [A | 0; 0 | Aᵀ] in an (m+n)×(n+m) matrix, written from the stored
/// entries of A only (structural zeros stay zero), as assemble_kkt does. The
/// callers fill the off-diagonal blocks.
Matrix place_a_blocks(const CsrMatrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix m1(m + n, n + m);
  const auto offsets = a.row_offsets();
  const auto cols = a.column_indices();
  const auto values = a.values();
  // Row block 1: [A | ·], row block 2: [· | Aᵀ].
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      m1(i, cols[k]) = values[k];
      m1(m + cols[k], n + i) = values[k];
    }
  return m1;
}

}  // namespace

Matrix build_balanced_m1(const lp::LinearProgram& problem,
                         double balancing_scale, Rng& rng) {
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  // Row block 1: [A | RU], row block 2: [RL | Aᵀ].
  Matrix m1 = place_a_blocks(problem.a);
  const double epsilon =
      balancing_scale * std::max(mean_abs(problem.a), 1e-12);
  // The paper's rule (§3.4): RU when m >= n, RL when n >= m.
  if (m >= n)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t k = 0; k < m; ++k)
        m1(i, n + k) = epsilon * rng.uniform(0.5, 1.5);
  if (n >= m)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        m1(m + j, k) = epsilon * rng.uniform(0.5, 1.5);
  return m1;
}

Matrix build_schur_m1(const lp::LinearProgram& problem,
                      const PdipState& state, double ratio_cap) {
  problem.validate();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  Matrix m1 = place_a_blocks(problem.a);
  for (std::size_t i = 0; i < m; ++i)
    m1(i, n + i) = -std::min(state.w[i] / state.y[i], ratio_cap);
  for (std::size_t j = 0; j < n; ++j)
    m1(m + j, j) = std::min(state.z[j] / state.x[j], ratio_cap);
  return m1;
}

PivotPlan ls_pivot_plan(std::size_t n, std::size_t m,
                        const NegativeFreeSystem& negfree) {
  const std::size_t base = n + m;
  MEMLP_EXPECT(negfree.base_dim() == base);
  // Every y column holds the negative −w_i/ŷ_i and so has a compensation
  // column; an x column has one where A has a negative entry.
  constexpr std::size_t kNone = PlannedPivot::kNoColumn;
  std::vector<std::size_t> y_comp(m, kNone);
  PivotPlan plan;
  plan.reserve(negfree.dim());
  for (std::size_t l = 0; l < negfree.num_compensations(); ++l) {
    const std::size_t j = negfree.compensated_column(l);
    if (j < n)
      plan.push_back({.row = base + l, .column = base + l});
    else
      y_comp[j - n] = l;
  }
  for (std::size_t i = 0; i < m; ++i) {
    MEMLP_EXPECT_MSG(y_comp[i] != kNone,
                     "ls_pivot_plan: column y_" << i << " has no compensation");
    plan.push_back({.row = i, .column = base + y_comp[i]});
  }
  for (std::size_t i = 0; i < m; ++i)
    plan.push_back({.row = base + y_comp[i], .column = n + i});
  for (std::size_t j = 0; j < n; ++j)
    plan.push_back({.row = m + j, .column = j});
  return plan;
}

XbarSolveOutcome solve_ls_pdip(const lp::LinearProgram& original,
                               const LsPdipOptions& options) {
  // Normalize the data to the analog range first (see core/scaling.hpp);
  // the algorithm below runs entirely on the scaled problem.
  const ProblemScaling scaling(original);
  const lp::LinearProgram& problem = scaling.scaled();
  MEMLP_EXPECT(options.alpha >= 1.0);
  MEMLP_EXPECT(options.theta > 0.0 && options.theta < 1.0);
  MEMLP_EXPECT(options.ratio_cap > 1.0);
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  obs::TraceSink* sink = options.pdip.trace != nullptr
                             ? options.pdip.trace
                             : obs::default_trace_sink();
  obs::ProfileSpan profile_root("ls");

  Rng rng(options.seed);
  const bool schur = options.m1_mode == M1Mode::kSchurDiagonal;
  NegativeFreeSystem negfree1(
      schur ? build_schur_m1(problem, PdipState::ones(n, m), options.ratio_cap)
            : build_balanced_m1(problem, options.balancing_scale, rng));

  // M1's corner diagonals span many decades, so its array uses per-cell
  // gain-ranged writes (see CrossbarConfig::per_cell_gain_ranging).
  BackendOptions m1_hardware = options.hardware;
  if (schur) m1_hardware.crossbar.per_cell_gain_ranging = true;
  auto backend1 = make_backend(m1_hardware, rng.split());
  // M2 is (n+m) diagonal; it uses the paper's plain globally-mapped array.
  // Only the Eq. (16b) slack recovery reads it (the literal mode, or
  // kM2Diagonal); the default kStable recovery never does, so the array is
  // neither built nor programmed then.
  std::unique_ptr<AnalogBackend> backend2;
  if (!schur || options.recovery == RecoveryMode::kM2Diagonal)
    backend2 = make_backend(options.hardware, rng.split());
  xbar::AmplifierBank amps;

  // The iteration loop itself lives in core/engine.hpp; this entry point
  // configures the least-squares policy (constant θ of §3.4, no Mehrotra
  // corrector) and the retry/acceptance driver.
  EngineConfig config;
  config.solver_name = "ls";
  config.supports_mehrotra = false;
  config.constant_theta = options.theta;
  config.state_floor = options.state_floor;
  config.attempt_mode = true;
  config.acceptance_merit = options.acceptance_merit;
  config.stall_window = options.stall_window;

  AnalogSolveSpec spec;
  spec.solver_name = "ls";
  spec.max_retries = options.max_retries;
  spec.acceptance_merit = options.acceptance_merit;
  spec.alpha = options.alpha;
  spec.variation_magnitude = options.hardware.crossbar.variation.magnitude();

  LsNewton newton(problem, options, negfree1, *backend1, backend2.get(),
                  amps);
  return solve_analog_pdip(problem, scaling, options.pdip, config, spec,
                           newton, sink);
}

}  // namespace memlp::core
