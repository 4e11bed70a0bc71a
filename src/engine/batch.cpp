#include "engine/batch.hpp"

#include "common/contracts.hpp"
#include "common/par.hpp"
#include "common/stopwatch.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace memlp::engine {

std::vector<SolveReport> solve_batch(std::span<const BatchItem> items,
                                     std::size_t threads) {
  const SolverRegistry& registry = SolverRegistry::global();
  for (const BatchItem& item : items) {
    MEMLP_EXPECT_MSG(item.problem != nullptr, "solve_batch: null problem");
    MEMLP_EXPECT_MSG(registry.contains(item.request.solver),
                     "solve_batch: unknown solver '" << item.request.solver
                                                     << "'");
  }
  // One contiguous trace-id block, minted up front on the calling thread:
  // item i is (trace_id base + i, solve_id i) at every thread count, so a
  // batch trace filters identically whether it ran serial or pooled.
  const std::uint64_t base_trace_id = obs::mint_trace_ids(items.size());
  const Stopwatch batch_clock;
  std::vector<SolveReport> reports(items.size());
  par::parallel_for(
      items.size(),
      [&](std::size_t i) {
        // Time from batch submission to this item starting = queue wait.
        const double wait_s = batch_clock.seconds();
        obs::SolveContext context;
        context.trace_id = base_trace_id + i;
        context.solve_id = i;
        const obs::ScopedSolveContext scope(context);
        const Stopwatch exec_clock;
        reports[i] = registry.solve(*items[i].problem, items[i].request);
        auto& metrics = obs::MetricsRegistry::global();
        metrics.histogram(items[i].request.solver + ".batch_wait_seconds")
            .observe(wait_s);
        metrics.histogram(items[i].request.solver + ".batch_exec_seconds")
            .observe(exec_clock.seconds());
      },
      threads);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("batch.calls").add();
  metrics.counter("batch.problems").add(items.size());
  // Batch boundaries are the natural exposition cadence for serving-style
  // loads: refresh the .prom snapshot when MEMLP_METRICS_OUT is configured.
  obs::Telemetry::global().write_metrics_if_configured();
  return reports;
}

}  // namespace memlp::engine
