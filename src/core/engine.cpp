#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/stopwatch.hpp"
#include "linalg/ops.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace memlp::core {
namespace {

/// µ direction changes (>10% swings) in one run before the health monitor
/// calls it oscillation — a healthy central path drives µ monotonically
/// down, so repeated reversals mean the solver is bouncing around it.
constexpr std::size_t kMuFlipAlarm = 6;

/// Largest θ ∈ (0, 1] keeping the state positive for this step (the exact
/// Eq. (11) bound with r = 1, used by the software Mehrotra predictor).
double max_feasible_theta(const PdipState& state, const StepDirection& step) {
  double blocking = 0.0;
  const auto scan = [&blocking](const Vec& v, const Vec& dv) {
    for (std::size_t i = 0; i < v.size(); ++i)
      blocking = std::max(blocking, -dv[i] / v[i]);
  };
  scan(state.x, step.dx);
  scan(state.y, step.dy);
  scan(state.w, step.dw);
  scan(state.z, step.dz);
  return blocking <= 0.0 ? 1.0 : std::min(1.0, 1.0 / blocking);
}

/// Duality gap of the state after a θ-step (for Mehrotra's σ).
double gap_after(const PdipState& state, const StepDirection& step,
                 double theta) {
  double gap = 0.0;
  for (std::size_t j = 0; j < state.x.size(); ++j)
    gap += (state.x[j] + theta * step.dx[j]) *
           (state.z[j] + theta * step.dz[j]);
  for (std::size_t i = 0; i < state.y.size(); ++i)
    gap += (state.y[i] + theta * step.dy[i]) *
           (state.w[i] + theta * step.dw[i]);
  return gap;
}

}  // namespace

NewtonSystem::~NewtonSystem() = default;

void NewtonSystem::begin_iteration(const PdipState&, std::size_t) {}

void NewtonSystem::prepare(const PdipState&) {}

std::optional<double> NewtonSystem::condition() { return std::nullopt; }

Vec NewtonSystem::elementwise(std::span<const double> a,
                              std::span<const double> b) {
  return hadamard(a, b);
}

PdipEngine::PdipEngine(const lp::LinearProgram& problem,
                       const PdipOptions& options, const EngineConfig& config,
                       obs::TraceSink* sink)
    : problem_(problem),
      options_(options),
      config_(config),
      sink_(sink),
      b_scale_(1.0 + norm_inf(problem.b)),
      c_scale_(1.0 + norm_inf(problem.c)),
      size_(static_cast<double>(problem.num_variables() +
                                problem.num_constraints())) {}

// memlint:hot — the PDIP iteration body shared by every solver backend.
PdipEngine::Outcome PdipEngine::run(NewtonSystem& newton, PdipState& state) {
  Outcome attempt;
  std::size_t best_iteration = 0;
  std::size_t frozen_steps = 0;
  double previous_x_norm = 1.0;
  double previous_y_norm = 1.0;
  double best_x_norm = 1.0;
  double best_y_norm = 1.0;
  double previous_mu = 0.0;
  int mu_trend = 0;
  std::size_t mu_flips = 0;

  // Classifies a non-converged exit (attempt mode). A clearly failing
  // attempt (merit far above any acceptable level) whose dual iterate
  // dwarfs the primal one is the paper's infeasibility signature (§3.1) —
  // and vice versa for an unbounded objective. Analog noise freezes
  // diverging iterates (θ → 0 against floored state components) long before
  // any absolute bound, so dominance is the reliable signal. The problem is
  // pre-normalized (core/scaling.hpp), so legitimate optima have x, y of
  // order 1; an iterate an order of magnitude past that AND dominating the
  // other group is divergence. Only consulted after the attempt failed.
  const auto classify_exit = [&](AttemptOutcome fallback) {
    if (attempt.best_merit > config_.acceptance_merit) {
      const double x_norm = norm_inf(state.x);
      const double y_norm = norm_inf(state.y);
      if (y_norm > 8.0 && y_norm > 4.0 * (1.0 + x_norm))
        return AttemptOutcome::kInfeasible;
      if (x_norm > 8.0 && x_norm > 4.0 * (1.0 + y_norm))
        return AttemptOutcome::kUnbounded;
    }
    if (const auto diverged =
            classify_relative_divergence(state, b_scale_, c_scale_))
      return *diverged == lp::SolveStatus::kInfeasible
                 ? AttemptOutcome::kInfeasible
                 : AttemptOutcome::kUnbounded;
    return fallback;
  };

  for (std::size_t iteration = 1; iteration <= options_.max_iterations;
       ++iteration) {
    attempt.iterations = iteration;
    newton.begin_iteration(state, iteration);

    // Eq. (8) centering weight and the realization's residual measurement.
    const double gap = state.gap();
    const double mu = options_.delta * gap / size_;
    const Residuals res = newton.measure(state, mu);
    const double objective = problem_.objective(state.x);

    double merit = 0.0;
    if (config_.attempt_mode) {
      merit = std::max({res.primal_inf / b_scale_, res.dual_inf / c_scale_,
                        gap / (1.0 + std::abs(objective))});
      if (merit < attempt.best_merit) {
        attempt.best_merit = merit;
        attempt.best_state = state;
        best_iteration = iteration;
        best_x_norm = std::max(norm_inf(state.x), 1e-3);
        best_y_norm = std::max(norm_inf(state.y), 1e-3);
      }
    }

    // Compact always-on digest (flight recorder) + µ-trend bookkeeping for
    // the health monitor. Reported at most once per run, when the flip count
    // first crosses the alarm — no scope-exit plumbing on the hot loop.
    obs::flight_record(obs::FlightEventKind::kIteration, config_.solver_name,
                       static_cast<double>(iteration), mu,
                       config_.attempt_mode ? merit : gap);
    if (previous_mu > 0.0) {
      const int direction = mu > 1.1 * previous_mu   ? 1
                            : mu < 0.9 * previous_mu ? -1
                                                     : 0;
      if (direction != 0) {
        if (mu_trend != 0 && direction != mu_trend &&
            ++mu_flips == kMuFlipAlarm) {
          obs::HealthMonitor::global().report(
              obs::Anomaly::kMuOscillation, config_.solver_name, sink_,
              static_cast<double>(mu_flips), static_cast<double>(iteration));
        }
        mu_trend = direction;
      }
    }
    previous_mu = mu;

    // Exactly one `iteration` event per loop entry, emitted at whichever
    // exit the iteration takes; step lengths and the condition estimate are
    // filled in once known.
    obs::IterationRecord rec;
    if (sink_ != nullptr) {
      rec.solver = config_.solver_name;
      rec.iteration = iteration;
      rec.attempt = config_.attempt_index;
      rec.mu = mu;
      rec.primal_inf = res.primal_inf;
      rec.dual_inf = res.dual_inf;
      rec.gap = gap;
      rec.objective = objective;
      if (config_.attempt_mode) rec.merit = merit;
      if (config_.constant_theta)
        rec.alpha_p = rec.alpha_d = *config_.constant_theta;
    }
    const auto emit_iteration = [&] {
      if (sink_ != nullptr) sink_->emit(rec.to_event());
    };

    // Convergence test (§3.1) on the measured residuals.
    if (res.primal_inf <= options_.eps_primal * b_scale_ &&
        res.dual_inf <= options_.eps_dual * c_scale_ &&
        gap <= options_.eps_gap * (1.0 + std::abs(objective))) {
      attempt.outcome = AttemptOutcome::kConverged;
      emit_iteration();
      return attempt;
    }

    // Divergence ⇒ infeasibility (§3.1): an unbounded dual iterate signals
    // a primal-infeasible problem; an unbounded primal iterate an unbounded
    // objective.
    double x_norm_now = 0.0;
    double y_norm_now = 0.0;
    if (config_.attempt_mode) {
      x_norm_now = norm_inf(state.x);
      y_norm_now = norm_inf(state.y);
    }
    if (const auto diverged = classify_divergence(
            state, options_.divergence_bound, options_.divergence_bound)) {
      // Genuine divergence is directional: one group blows up while the
      // other stays bounded. Both groups having jumped orders of magnitude
      // — whether in one step or since the best iterate — is a wild solve
      // off a near-singular effective array: retry, don't misclassify.
      if (config_.attempt_mode &&
          ((x_norm_now > 100.0 * previous_x_norm &&
            y_norm_now > 100.0 * previous_y_norm) ||
           (x_norm_now > 100.0 * best_x_norm &&
            y_norm_now > 100.0 * best_y_norm))) {
        obs::HealthMonitor::global().report(
            obs::Anomaly::kWildJump, config_.solver_name, sink_,
            std::max(x_norm_now, y_norm_now),
            static_cast<double>(iteration));
        attempt.outcome = AttemptOutcome::kHardwareFailure;
        emit_iteration();
        return attempt;
      }
      obs::HealthMonitor::global().report(
          obs::Anomaly::kDivergence, config_.solver_name, sink_,
          std::max(x_norm_now, y_norm_now), static_cast<double>(iteration));
      attempt.outcome = *diverged == lp::SolveStatus::kInfeasible
                            ? AttemptOutcome::kInfeasible
                            : AttemptOutcome::kUnbounded;
      emit_iteration();
      return attempt;
    }
    if (config_.attempt_mode) {
      previous_x_norm = std::max(x_norm_now, 1.0);
      previous_y_norm = std::max(y_norm_now, 1.0);
      if (iteration - best_iteration > config_.stall_window) {
        obs::HealthMonitor::global().report(
            obs::Anomaly::kStall, config_.solver_name, sink_,
            static_cast<double>(iteration - best_iteration),
            static_cast<double>(iteration));
        attempt.outcome = classify_exit(AttemptOutcome::kStalled);
        emit_iteration();
        return attempt;
      }
    }

    // One factorization per iteration, reused for every right-hand side
    // (software policies; no-op for analog settles).
    newton.prepare(state);
    if (sink_ != nullptr) {
      if (const auto cond = newton.condition()) rec.condition = *cond;
    }

    // --- The Newton step, optionally refined by Mehrotra's
    // predictor-corrector: the affine (µ = 0) predictor picks the centering
    // weight σ = (µ_aff/µ_mean)³ and supplies the second-order correction
    // ∆X_aff·∆Z_aff·e for the corrector solve.
    std::optional<StepDirection> step;
    bool classify_on_failure = true;
    const bool use_mehrotra =
        config_.supports_mehrotra && options_.predictor_corrector;
    struct Corrector {
      double mu_target;
      double mu_affine;
      double sigma;
    };
    const auto corrector_sigma = [&](const StepDirection& affine) {
      const double theta_affine =
          config_.affine_exact
              ? max_feasible_theta(state, affine)
              : step_length(state, affine, options_.step_ratio,
                            config_.step_dead_floor);
      const double mu_mean = gap / size_;
      const double mu_affine = gap_after(state, affine, theta_affine) / size_;
      const double ratio = std::clamp(
          mu_affine / std::max(mu_mean, config_.mu_mean_floor), 0.0, 1.0);
      const double sigma = ratio * ratio * ratio;
      return Corrector{sigma * mu_mean, mu_affine, sigma};
    };
    if (!use_mehrotra) {
      NewtonStep plain = newton.solve(state, mu, {}, {},
                                      /*reuse_measured_rhs=*/true);
      step = std::move(plain.step);
      classify_on_failure = plain.classify_on_failure;
    } else if (config_.mehrotra == MehrotraMode::kAffineFirst) {
      NewtonStep affine = newton.solve(state, 0.0, {}, {},
                                       /*reuse_measured_rhs=*/false);
      if (affine.step) {
        const Corrector corr = corrector_sigma(*affine.step);
        const Vec corr1 = newton.elementwise(affine.step->dx, affine.step->dz);
        const Vec corr2 = newton.elementwise(affine.step->dy, affine.step->dw);
        NewtonStep corrected =
            newton.solve(state, corr.mu_target, corr1, corr2,
                         /*reuse_measured_rhs=*/false);
        step = std::move(corrected.step);
        classify_on_failure = corrected.classify_on_failure;
        // Trace the µ the corrector actually solved with (σ·µ_mean, not the
        // Eq. (8) default) — plus the affine diagnostics behind σ.
        rec.mu = corr.mu_target;
        rec.mu_affine = corr.mu_affine;
        rec.sigma = corr.sigma;
      }
    } else {  // MehrotraMode::kCorrectorRefine
      NewtonStep plain = newton.solve(state, mu, {}, {},
                                      /*reuse_measured_rhs=*/true);
      step = std::move(plain.step);
      classify_on_failure = plain.classify_on_failure;
      if (step) {
        NewtonStep affine = newton.solve(state, 0.0, {}, {},
                                         /*reuse_measured_rhs=*/false);
        if (affine.step) {
          const Corrector corr = corrector_sigma(*affine.step);
          const Vec corr1 =
              newton.elementwise(affine.step->dx, affine.step->dz);
          const Vec corr2 =
              newton.elementwise(affine.step->dy, affine.step->dw);
          NewtonStep corrected =
              newton.solve(state, corr.mu_target, corr1, corr2,
                           /*reuse_measured_rhs=*/false);
          if (corrected.step) {
            // The step taken came from the corrector settle; when it fails
            // we keep the plain-Newton settle at µ = δ·gap/size, so rec.mu
            // stays as initialized.
            step = std::move(corrected.step);
            rec.mu = corr.mu_target;
            rec.mu_affine = corr.mu_affine;
            rec.sigma = corr.sigma;
          }
        }
      }
    }
    if (!step) {
      // On an infeasible/unbounded problem the central path does not exist
      // and the diverging iterates drive the Newton system singular well
      // before the hard bound; classify with a soft bound first.
      if (config_.attempt_mode) {
        attempt.outcome = classify_on_failure
                              ? classify_exit(AttemptOutcome::kHardwareFailure)
                              : AttemptOutcome::kHardwareFailure;
      } else if (const auto diverged = classify_relative_divergence(
                     state, b_scale_, c_scale_)) {
        attempt.outcome = *diverged == lp::SolveStatus::kInfeasible
                              ? AttemptOutcome::kInfeasible
                              : AttemptOutcome::kUnbounded;
      } else {
        attempt.outcome = AttemptOutcome::kHardwareFailure;
      }
      emit_iteration();
      return attempt;
    }

    // Eq. (11) step lengths (or the constant θ of §3.4), then the update.
    double theta = 0.0;
    if (config_.constant_theta) {
      theta = *config_.constant_theta;
    } else {
      const StepLengths alphas = step_lengths(
          state, *step, options_.step_ratio, config_.step_dead_floor);
      theta = alphas.applied();
      rec.alpha_p = alphas.alpha_p;
      rec.alpha_d = alphas.alpha_d;
    }
    if (config_.frozen_limit > 0) {
      // θ collapsing for several iterations means a floored state component
      // is blocking every step — the frozen signature of a diverged iterate
      // under analog noise.
      frozen_steps = theta < 1e-7 ? frozen_steps + 1 : 0;
      if (frozen_steps >= config_.frozen_limit) {
        obs::HealthMonitor::global().report(
            obs::Anomaly::kStall, config_.solver_name, sink_,
            static_cast<double>(frozen_steps),
            static_cast<double>(iteration));
        attempt.outcome = classify_exit(AttemptOutcome::kStalled);
        emit_iteration();
        return attempt;
      }
    }
    apply_step(state, *step, theta);
    if (config_.state_floor > 0.0) state.clamp_floor(config_.state_floor);
    emit_iteration();
  }
  attempt.outcome = config_.attempt_mode
                        ? classify_exit(AttemptOutcome::kIterationLimit)
                        : AttemptOutcome::kIterationLimit;
  return attempt;
}

void SettleFrontLog::record() {
  const std::uint64_t factorizations =
      backend_.stats().settle_cache.full_factorizations;
  if (factorizations == seen_factorizations_) return;
  seen_factorizations_ = factorizations;
  if (const LuFactorization* lu = backend_.settle_factor()) {
    front_dims_.push_back(lu->front_dim());
    deferred_pivots_ += lu->deferred_pivots();
  }
}

SettleFrontStats SettleFrontLog::stats() const {
  SettleFrontStats fronts;
  fronts.factorizations = front_dims_.size();
  fronts.deferred_pivots = deferred_pivots_;
  if (front_dims_.empty()) return fronts;
  std::vector<std::size_t> dims = front_dims_;
  const auto middle = dims.begin() + static_cast<std::ptrdiff_t>(
                                         (dims.size() - 1) / 2);
  std::nth_element(dims.begin(), middle, dims.end());
  fronts.front_dim_p50 = *middle;
  fronts.front_dim_max = *std::max_element(dims.begin(), dims.end());
  return fronts;
}

XbarSolveOutcome solve_analog_pdip(const lp::LinearProgram& problem,
                                   const ProblemScaling& scaling,
                                   const PdipOptions& options,
                                   const EngineConfig& config,
                                   const AnalogSolveSpec& spec,
                                   AnalogNewtonSystem& newton,
                                   obs::TraceSink* sink) {
  const Stopwatch timer;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  XbarSolveOutcome out;
  newton.describe(out.stats);
  out.result.status = lp::SolveStatus::kNumericalFailure;

  // The solution lives on the *programmed* (varied) constraint matrix, so
  // the final check against the true A must tolerate the representational
  // error: α grows with the process-variation magnitude (§3.2's "close to
  // but greater than 1" presumes ideal devices).
  const double alpha_effective =
      std::max(spec.alpha, 1.0 + 1.5 * spec.variation_magnitude);

  for (std::size_t attempt_index = 0; attempt_index <= spec.max_retries;
       ++attempt_index) {
    out.stats.attempts = attempt_index + 1;
    if (attempt_index > 0)
      obs::flight_record(obs::FlightEventKind::kRetry, spec.solver_name,
                         static_cast<double>(attempt_index + 1),
                         static_cast<double>(out.result.status));
    const bool reuse_array = attempt_index == 0 &&
                             spec.array_programmed != nullptr &&
                             *spec.array_programmed;
    PdipEngine::Outcome attempt;
    {
      PdipState state = PdipState::ones(n, m);
      newton.begin_attempt(state, attempt_index + 1, reuse_array,
                           out.stats.programming, sink);
      if (spec.array_programmed != nullptr) *spec.array_programmed = true;

      // The per-attempt iteration phase closes on scope exit (RAII),
      // annotated with the backend traffic it generated — against
      // `programming` this is the paper's O(N)-per-iteration vs
      // O(N²)-per-program split.
      obs::PhaseSpan iteration_span(sink, spec.solver_name, "iterations");
      if (iteration_span.active()) {
        iteration_span.note("attempt", attempt_index + 1);
        newton.snapshot_counters();
        iteration_span.on_close([&newton, &attempt](obs::PhaseSpan& span) {
          span.note("iterations", attempt.iterations);
          newton.annotate_counters(span);
        });
      }
      EngineConfig attempt_config = config;
      attempt_config.attempt_index = attempt_index + 1;
      PdipEngine engine(problem, options, attempt_config, sink);
      attempt = engine.run(newton, state);
      // CMOS controller sequencing cost, charged while the iteration span
      // is still open so it lands under "<solver>/iterations".
      obs::CostLedger::charge_active(
          {.controller_iterations = attempt.iterations});
    }
    out.stats.iterations += attempt.iterations;

    // A divergence verdict is only credible when the attempt never came
    // close to solving; a late blow-up after a near-converged iterate (a
    // wild step off a near-singular quantized array) falls through to the
    // acceptance path below.
    const bool diverged_credibly =
        attempt.best_merit > spec.acceptance_merit;
    if (attempt.outcome == AttemptOutcome::kInfeasible && diverged_credibly) {
      out.result.status = lp::SolveStatus::kInfeasible;
      out.result.iterations = out.stats.iterations;
      break;
    }
    if (attempt.outcome == AttemptOutcome::kUnbounded && diverged_credibly) {
      out.result.status = lp::SolveStatus::kUnbounded;
      out.result.iterations = out.stats.iterations;
      break;
    }
    const bool accepted =
        (attempt.outcome == AttemptOutcome::kConverged ||
         attempt.best_merit <= spec.acceptance_merit) &&
        !attempt.best_state.x.empty() &&
        // The check tolerates the solver's own achieved accuracy (the merit
        // bounds the scaled residuals): its job is to reject *wrong*
        // solutions, not to demand precision beyond the analog noise floor.
        problem.satisfies_constraints(
            attempt.best_state.x, alpha_effective,
            2.0 * attempt.best_merit * (1.0 + norm_inf(problem.b)) + 1e-9);
    if (accepted) {
      out.result.status = lp::SolveStatus::kOptimal;
      out.result.x = attempt.best_state.x;
      out.result.y = attempt.best_state.y;
      out.result.w = attempt.best_state.w;
      out.result.z = attempt.best_state.z;
      out.result.objective = problem.objective(attempt.best_state.x);
      out.result.iterations = out.stats.iterations;
      break;
    }
    // Otherwise: retry with a freshly programmed crossbar — process
    // variation differs on every write (§4.3), so the next attempt sees a
    // different effective matrix.
    out.result.status = attempt.outcome == AttemptOutcome::kIterationLimit
                            ? lp::SolveStatus::kIterationLimit
                            : lp::SolveStatus::kNumericalFailure;
    out.result.iterations = out.stats.iterations;
  }

  newton.collect_stats(out.stats);
  scaling.unscale(out.result);
  // Host time simulating the solve, apart from the modelled hardware time.
  // It stays out of the solve_summary event below, which is deterministic.
  out.result.wall_seconds = timer.seconds();

  obs::flight_record(obs::FlightEventKind::kSolveEnd, spec.solver_name,
                     static_cast<double>(out.stats.iterations),
                     out.result.optimal() ? 1.0 : 0.0);
  if (out.stats.attempts >= 3)
    obs::HealthMonitor::global().report(obs::Anomaly::kRetryStorm,
                                        spec.solver_name, sink,
                                        static_cast<double>(out.stats.attempts));
  // A solve that ends in failure dumps the recorder for post-mortem even
  // when no trace was armed (infeasible/unbounded are conclusions, not
  // failures).
  if (out.result.status == lp::SolveStatus::kNumericalFailure ||
      out.result.status == lp::SolveStatus::kIterationLimit)
    obs::flight_dump_on_failure("solver_failure");

  if (sink != nullptr) {
    obs::SolveSummary summary;
    summary.solver = spec.solver_name;
    summary.status = lp::to_string(out.result.status);
    summary.iterations = out.stats.iterations;
    summary.objective = out.result.objective;
    obs::Event event = summary.to_event();
    event.with("attempts", out.stats.attempts)
        .with("system_dim", out.stats.system_dim)
        .with("compensations", out.stats.compensations)
        .with("programming.full_programs",
              out.stats.programming.xbar.full_programs)
        .with("programming.cells_written",
              out.stats.programming.xbar.cells_written)
        .with("programming.write_pulses",
              out.stats.programming.xbar.write_pulses)
        .with("backend.cells_written", out.stats.backend.xbar.cells_written)
        .with("backend.mvm_ops", out.stats.backend.xbar.mvm_ops)
        .with("backend.solve_ops", out.stats.backend.xbar.solve_ops)
        .with("backend.num_tiles", out.stats.backend.num_tiles);
    const SettleFrontStats& fronts = out.stats.settle_fronts;
    if (fronts.factorizations > 0)
      event.with("settle.factorizations", fronts.factorizations)
          .with("settle.front_dim_p50", fronts.front_dim_p50)
          .with("settle.front_dim_max", fronts.front_dim_max)
          .with("settle.deferred_pivots", fronts.deferred_pivots);
    sink->emit(event);
    sink->flush();
  }
  auto& registry = obs::MetricsRegistry::global();
  const std::string prefix = spec.solver_name;
  registry.counter(prefix + ".solves").add();
  registry.counter(prefix + ".iterations").add(out.stats.iterations);
  registry.counter(prefix + ".attempts").add(out.stats.attempts);
  if (out.result.optimal()) registry.counter(prefix + ".optimal").add();
  return out;
}

}  // namespace memlp::core
