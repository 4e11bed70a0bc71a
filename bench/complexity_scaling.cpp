// §3.5 complexity comparison: per-iteration cost of the software methods
// (O(N³) LU / O(N²) Gauss-Seidel sweep) vs the crossbar solver's O(N)
// coefficient updates and O(1) settles.
//
// This harness measures the actual quantities: per-iteration wall time of
// the software PDIP (dominated by the LU of the 2(n+m) Newton system),
// per-sweep wall time of Gauss–Seidel on the same system, and the counted
// per-iteration written cells / analog settles of both crossbar solvers.
// It also reports the one-off O(N²) array-programming cost that the
// iterative analysis excludes.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "artifact.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/kkt.hpp"
#include "core/ls_pdip.hpp"
#include "core/pdip.hpp"
#include "core/xbar_pdip.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/profiler.hpp"
#include "perf/hardware_model.hpp"

using namespace memlp;

namespace {

/// Total wall seconds accumulated so far in the simulated analog settle
/// (profiler paths under the xbar solver ending in "/settle"). Snapshot
/// before/after one solve and subtract to isolate that solve's share.
double settle_wall_seconds() {
  const obs::Profiler* profiler = obs::Profiler::active();
  if (profiler == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& stats : profiler->aggregate()) {
    if (stats.path.rfind("xbar", 0) != 0) continue;
    constexpr std::string_view kSuffix = "/settle";
    if (stats.path.size() >= kSuffix.size() &&
        stats.path.compare(stats.path.size() - kSuffix.size(), kSuffix.size(),
                           kSuffix) == 0)
      total += stats.total_s;
  }
  return total;
}

/// Digital flops the ledger attributes to settle call paths in `tree`.
std::uint64_t settle_flops(const obs::CostTree& tree) {
  std::uint64_t total = 0;
  for (const auto& [path, counters] : tree)
    if (path.find("/settle") != std::string::npos) total += counters.flops;
  return total;
}

}  // namespace

int main() {
  const auto config = bench::SweepConfig::from_env();
  bench::BenchRun run("complexity_scaling",
                      "§3.5 — per-iteration complexity scaling",
                      "O(N^3) LU / O(N^2) iterative vs O(N) crossbar updates",
                      config);

  const perf::HardwareModel hardware;
  TextTable table("per-iteration cost vs N = n + m");
  table.set_header({"m", "N", "LU [ms]", "GS sweep [ms]", "xbar cells/iter",
                    "xbar settles/iter", "settle [ms]",
                    "program [ms] (one-off)"});

  for (const std::size_t m : config.sizes) {
    const auto problem = bench::feasible_problem(config, m, 0);
    const std::size_t n = problem.num_variables();
    const core::KktLayout layout{n, m};

    // Software per-iteration: one LU factorization + solve of Eq. (12).
    const core::PdipState state = core::PdipState::ones(n, m);
    const Matrix kkt = core::assemble_kkt(problem, state);
    const Vec rhs = core::kkt_rhs(problem, state, 0.1);
    Stopwatch lu_timer;
    const LuFactorization lu(kkt);
    Vec solution;
    if (!lu.singular()) solution = lu.solve(rhs);
    const double lu_ms = lu_timer.millis();

    // One Gauss–Seidel sweep over the same system (cost per sweep; the
    // method itself need not converge on a KKT matrix).
    IterativeOptions gs_options;
    gs_options.max_sweeps = 1;
    Matrix dominant = kkt;  // make the diagonal usable for a sweep timing
    for (std::size_t i = 0; i < dominant.rows(); ++i)
      dominant(i, i) += dominant.inf_norm();
    Stopwatch gs_timer;
    (void)gauss_seidel(dominant, rhs, gs_options);
    const double gs_ms = gs_timer.millis();

    // Crossbar solver: counted per-iteration writes and settles, plus the
    // simulated settle cost (the effective matrix is re-factored whenever a
    // conductance actually changed).
    core::XbarPdipOptions options;
    options.seed = config.seed + m;
    const double settle_wall_before_s = settle_wall_seconds();
    const auto settle_flops_before = settle_flops(run.ledger().tree());
    const auto outcome = core::solve_xbar_pdip(problem, options);
    const double settle_ms =
        (settle_wall_seconds() - settle_wall_before_s) * 1e3;
    const auto settle_flops_total =
        settle_flops(run.ledger().tree()) - settle_flops_before;

    double cells_per_iteration = 0.0;
    double settles_per_iteration = 0.0;
    double program_ms = 0.0;
    if (outcome.stats.iterations > 0) {
      const auto iterative =
          outcome.stats.backend.since(outcome.stats.programming);
      cells_per_iteration =
          static_cast<double>(iterative.xbar.cells_written) /
          static_cast<double>(outcome.stats.iterations);
      settles_per_iteration =
          static_cast<double>(iterative.xbar.mvm_ops +
                              iterative.xbar.solve_ops) /
          static_cast<double>(outcome.stats.iterations);
      program_ms = hardware.estimate_programming(outcome.stats).latency_s * 1e3;
    }

    table.add_row({TextTable::num((long long)m),
                   TextTable::num((long long)layout.dim()),
                   TextTable::num(lu_ms, 4), TextTable::num(gs_ms, 4),
                   TextTable::num(cells_per_iteration, 4),
                   TextTable::num(settles_per_iteration, 3),
                   TextTable::num(settle_ms, 4),
                   TextTable::num(program_ms, 4)});
    // Regression metrics at the sweep's largest size (wall clocks are
    // measured/noisy; the flop and factorization counts are exact ledger
    // and cache counters and get tight thresholds). The `/exact` suffix
    // keeps the metric names of earlier artifacts comparable.
    if (m == config.sizes.back()) {
      run.metric("settle_wall_ms/exact", settle_ms,
                 {"ms", true, /*measured=*/true});
      run.metric("settle_flops/exact",
                 static_cast<double>(settle_flops_total),
                 {"flops", true, /*measured=*/false});
      // How many O(N³) factorizations the whole solve paid for.
      run.metric("settle_full_factorizations/exact",
                 static_cast<double>(
                     outcome.stats.backend.settle_cache.full_factorizations),
                 {"count", true, /*measured=*/false});
    }
    std::fflush(stdout);
  }
  run.table(table);
  std::printf(
      "\nexpected shape: LU time grows ~N^3 and the sweep ~N^2, while the "
      "crossbar writes grow linearly in N (2(n+m) diagonal cells) with a "
      "constant number of settles.\n");
  return run.finish();
}
