#include "engine/registry.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "common/contracts.hpp"
#include "common/stopwatch.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "perf/hardware_model.hpp"

namespace memlp::engine {

core::XbarPdipOptions SolveRequest::xbar_options() const {
  if (xbar.has_value()) return *xbar;
  core::XbarPdipOptions options;
  options.pdip = pdip;
  options.hardware = hardware;
  options.seed = seed;
  return options;
}

core::LsPdipOptions SolveRequest::ls_options() const {
  if (ls.has_value()) return *ls;
  core::LsPdipOptions options;
  options.pdip = pdip;
  options.hardware = hardware;
  options.seed = seed;
  return options;
}

solvers::SimplexOptions SolveRequest::simplex_options() const {
  if (simplex.has_value()) return *simplex;
  solvers::SimplexOptions options;
  options.trace = pdip.trace;
  return options;
}

struct SolverRegistry::Impl {
  /// Guards the name table only — never held across a solve, so concurrent
  /// batch workers serialize on lookup (microseconds) and solve freely.
  mutable std::mutex mutex;  // memlint:allow(R1)
  std::map<std::string, SolveFn> table;
};

SolverRegistry::SolverRegistry() : impl_(std::make_unique<Impl>()) {}
SolverRegistry::~SolverRegistry() = default;

void SolverRegistry::register_solver(const std::string& name, SolveFn fn) {
  MEMLP_EXPECT_MSG(!name.empty(), "register_solver: empty solver name");
  MEMLP_EXPECT_MSG(fn != nullptr, "register_solver: null solver function");
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->table[name] = std::move(fn);
}

bool SolverRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->table.contains(name);
}

std::vector<std::string> SolverRegistry::names() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->table.size());
  for (const auto& [name, fn] : impl_->table) out.push_back(name);
  return out;  // std::map iterates in sorted order.
}

std::optional<SolveFn> SolverRegistry::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->table.find(name);
  if (it == impl_->table.end()) return std::nullopt;
  return it->second;
}

SolveReport SolverRegistry::solve(const lp::LinearProgram& problem,
                                  const SolveRequest& request) const {
  const std::optional<SolveFn> fn = find(request.solver);
  MEMLP_EXPECT_MSG(fn.has_value(), "SolverRegistry: unknown solver '"
                                       << request.solver << "'");
  // Every registry solve runs under a SolveContext. A caller that already
  // installed one (solve_batch, nested solves) keeps it — minting here
  // would fork the trace identity mid-solve.
  std::optional<obs::ScopedSolveContext> scope;
  if (const obs::SolveContext* active = obs::current_solve_context();
      active == nullptr || !active->valid()) {
    obs::SolveContext context;
    context.trace_id = obs::mint_trace_ids();
    scope.emplace(context);
  }
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter(request.solver + ".requests").add();
  const Stopwatch clock;
  SolveReport report = (*fn)(problem, request);
  // Per-solve latency distribution (p50/p95/p99 for serving-style loads);
  // one histogram observation per solve, never per iteration.
  metrics.histogram(request.solver + ".solve_seconds")
      .observe(clock.seconds());
  if (report.has_hardware_stats) {
    // Per-solve analog energy (iterative phase + programming), priced with
    // the default constants — the same quantity the Fig. 7 benches report.
    const perf::HardwareModel model;
    perf::CostEstimate estimate = model.estimate(report.stats);
    estimate += model.estimate_programming(report.stats);
    metrics.histogram(request.solver + ".solve_energy_j")
        .observe(estimate.energy_j);
  }
  return report;
}

namespace {

SolveReport run_simplex(const lp::LinearProgram& problem,
                        const SolveRequest& request) {
  SolveReport report;
  report.solver = "simplex";
  report.result = solvers::solve_simplex(problem, request.simplex_options());
  return report;
}

SolveReport run_pdip(const lp::LinearProgram& problem,
                     const SolveRequest& request) {
  SolveReport report;
  report.solver = "pdip";
  report.result = core::solve_pdip(problem, request.pdip);
  return report;
}

SolveReport run_xbar(const lp::LinearProgram& problem,
                     const SolveRequest& request) {
  const core::XbarSolveOutcome outcome =
      core::solve_xbar_pdip(problem, request.xbar_options());
  SolveReport report;
  report.solver = "xbar";
  report.result = outcome.result;
  report.stats = outcome.stats;
  report.has_hardware_stats = true;
  return report;
}

SolveReport run_ls(const lp::LinearProgram& problem,
                   const SolveRequest& request) {
  const core::XbarSolveOutcome outcome =
      core::solve_ls_pdip(problem, request.ls_options());
  SolveReport report;
  report.solver = "ls";
  report.result = outcome.result;
  report.stats = outcome.stats;
  report.has_hardware_stats = true;
  return report;
}

void register_built_ins(SolverRegistry& registry) {
  registry.register_solver("simplex", run_simplex);
  registry.register_solver("pdip", run_pdip);
  registry.register_solver("xbar", run_xbar);
  registry.register_solver("ls", run_ls);
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry registry;
  static const bool built_ins = [] {
    register_built_ins(registry);
    return true;
  }();
  (void)built_ins;
  return registry;
}

SolveReport solve(const lp::LinearProgram& problem,
                  const SolveRequest& request) {
  return SolverRegistry::global().solve(problem, request);
}

}  // namespace memlp::engine
