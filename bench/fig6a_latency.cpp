// Fig. 6(a): estimated computation latency of the crossbar LP solver,
// compared with the exact software solver ("Matlab linprog" stand-in) and
// the software PDIP baseline.
//
// Paper reference points at m = 1024: linprog 6.23 s; crossbar solver
// 78 ms (ideal), 155 ms (5%), 195 ms (10%), 239 ms (20%) — ≥26x speedup.
// Crossbar latency is the iterative-phase estimate of perf::HardwareModel
// (the O(N²) initial programming is excluded per §3.5 and reported
// separately by bench/complexity_scaling).
#include <cstdio>
#include <vector>

#include "artifact.hpp"
#include "bench_util.hpp"
#include "core/pdip.hpp"
#include "core/xbar_pdip.hpp"
#include "perf/hardware_model.hpp"
#include "solvers/simplex.hpp"

using namespace memlp;

int main() {
  const auto config = bench::SweepConfig::from_env();
  bench::BenchRun run("fig6a_latency",
                      "Fig. 6(a) — estimated computation latency",
                      "crossbar solver vs software simplex and PDIP",
                      config);

  const perf::HardwareModel hardware;
  TextTable table("mean latency per solve (feasible LPs)");
  std::vector<std::string> header{"m", "simplex [ms]", "sw PDIP [ms]"};
  for (double variation : config.variations)
    header.push_back("xbar " + bench::percent(variation) + " [ms]");
  header.emplace_back("best speedup");
  table.set_header(header);

  for (const std::size_t m : config.sizes) {
    std::vector<double> simplex_ms;
    std::vector<double> pdip_ms;
    std::vector<std::vector<double>> xbar_ms(config.variations.size());
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      const auto problem = bench::feasible_problem(config, m, trial);
      const auto reference = solvers::solve_simplex(problem);
      if (reference.optimal())
        simplex_ms.push_back(reference.wall_seconds * 1e3);
      const auto software = core::solve_pdip(problem);
      if (software.optimal()) pdip_ms.push_back(software.wall_seconds * 1e3);
      for (std::size_t v = 0; v < config.variations.size(); ++v) {
        core::XbarPdipOptions options;
        options.hardware.crossbar.variation =
            config.variations[v] > 0.0
                ? mem::VariationModel::uniform(config.variations[v])
                : mem::VariationModel::none();
        options.seed = config.seed + 1000 * m + trial;
        const auto outcome = core::solve_xbar_pdip(problem, options);
        if (outcome.result.optimal())
          xbar_ms[v].push_back(hardware.estimate(outcome.stats).latency_s *
                               1e3);
      }
    }
    std::vector<std::string> row{TextTable::num((long long)m),
                                 TextTable::num(bench::mean(simplex_ms), 4),
                                 TextTable::num(bench::mean(pdip_ms), 4)};
    double best_xbar = 0.0;
    for (auto& samples : xbar_ms) {
      const double value = bench::mean(samples);
      row.push_back(TextTable::num(value, 4));
      if (best_xbar == 0.0 || (value > 0.0 && value < best_xbar))
        best_xbar = value;
    }
    row.push_back(best_xbar > 0.0
                      ? TextTable::num(bench::mean(simplex_ms) / best_xbar, 3) +
                            "x"
                      : "-");
    table.add_row(row);
    // Regression metrics at the sweep's largest size: wall-clock baselines
    // are measured (loose thresholds); xbar latencies are deterministic
    // hardware-model estimates (tight thresholds).
    if (m == config.sizes.back()) {
      run.metric("simplex_wall_ms", bench::mean(simplex_ms),
                 {"ms", true, /*measured=*/true});
      run.metric("pdip_wall_ms", bench::mean(pdip_ms),
                 {"ms", true, /*measured=*/true});
      for (std::size_t v = 0; v < config.variations.size(); ++v)
        run.metric(
            "xbar_latency_est_ms/var=" + bench::percent(config.variations[v]),
            bench::mean(xbar_ms[v]), {"ms", true, /*measured=*/false});
    }
    std::fflush(stdout);
  }
  run.table(table);
  std::printf(
      "\npaper at m=1024: simplex-class solver 6.23 s vs crossbar 78-239 ms "
      "(>=26x); latency grows with variation via extra iterations.\n");
  return run.finish();
}
