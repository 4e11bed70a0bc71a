#include "core/pdip.hpp"

#include "common/stopwatch.hpp"
#include "core/engine.hpp"
#include "core/kkt.hpp"
#include "core/newton_software.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace memlp::core {

lp::SolveResult solve_pdip(const lp::LinearProgram& problem,
                           const PdipOptions& options) {
  problem.validate();
  obs::ProfileSpan profile_root("pdip");
  Stopwatch timer;
  PdipState state =
      PdipState::ones(problem.num_variables(), problem.num_constraints());
  obs::TraceSink* sink =
      options.trace != nullptr ? options.trace : obs::default_trace_sink();

  // The whole iteration loop lives in core/engine.hpp; this entry point only
  // picks the software Newton policy and translates the outcome.
  EngineConfig config;
  config.solver_name = "pdip";
  SoftwareNewton newton(problem);
  PdipEngine engine(problem, options, config, sink);
  const PdipEngine::Outcome outcome = engine.run(newton, state);

  lp::SolveResult result;
  switch (outcome.outcome) {
    case AttemptOutcome::kConverged:
      result.status = lp::SolveStatus::kOptimal;
      break;
    case AttemptOutcome::kInfeasible:
      result.status = lp::SolveStatus::kInfeasible;
      break;
    case AttemptOutcome::kUnbounded:
      result.status = lp::SolveStatus::kUnbounded;
      break;
    case AttemptOutcome::kHardwareFailure:
      result.status = lp::SolveStatus::kNumericalFailure;
      break;
    default:
      result.status = lp::SolveStatus::kIterationLimit;
      break;
  }
  result.iterations = outcome.iterations;
  result.x = state.x;
  result.y = state.y;
  result.w = state.w;
  result.z = state.z;
  result.objective = problem.objective(state.x);
  result.wall_seconds = timer.seconds();

  if (sink != nullptr) {
    obs::SolveSummary summary;
    summary.solver = "pdip";
    summary.status = lp::to_string(result.status);
    summary.iterations = result.iterations;
    summary.objective = result.objective;
    summary.wall_seconds = result.wall_seconds;
    sink->emit(summary.to_event());
    sink->flush();
  }
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("pdip.solves").add();
  registry.counter("pdip.iterations").add(result.iterations);
  if (result.optimal()) registry.counter("pdip.optimal").add();
  return result;
}

}  // namespace memlp::core
