// Fig. 7(a): estimated energy consumption of the crossbar LP solver,
// compared with the exact software solver and the software PDIP baseline.
//
// Paper reference points at m = 1024: linprog 218.1 J; crossbar solver
// 0.9 J (ideal), 6.2 J (5%), 8.9 J (10%), 12.1 J (20%) — ≥24x reduction.
// CPU energy = measured wall time × the package power implied by the
// paper's own latency/energy pairs (35 W). Crossbar energy is derived from
// the cost ledger: each solve is bracketed with ledger snapshots and the
// delta's iterative bucket (perf::split_programming) is priced — the same
// number HardwareModel::estimate(stats) produces, but attributed per phase.
#include <cstdio>
#include <vector>

#include "artifact.hpp"
#include "bench_util.hpp"
#include "core/pdip.hpp"
#include "core/xbar_pdip.hpp"
#include "perf/cost_tree.hpp"
#include "perf/hardware_model.hpp"
#include "solvers/simplex.hpp"

using namespace memlp;

int main() {
  const auto config = bench::SweepConfig::from_env();
  bench::BenchRun run("fig7a_energy",
                      "Fig. 7(a) — estimated energy consumption",
                      "crossbar solver vs software simplex and PDIP",
                      config);

  const perf::HardwareModel hardware;
  const perf::CpuModel cpu;
  TextTable table("mean energy per solve (feasible LPs)");
  std::vector<std::string> header{"m", "simplex [J]", "sw PDIP [J]"};
  for (double variation : config.variations)
    header.push_back("xbar " + bench::percent(variation) + " [J]");
  header.emplace_back("best reduction");
  table.set_header(header);

  for (const std::size_t m : config.sizes) {
    std::vector<double> simplex_j;
    std::vector<double> pdip_j;
    std::vector<std::vector<double>> xbar_j(config.variations.size());
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      const auto problem = bench::feasible_problem(config, m, trial);
      const auto reference = solvers::solve_simplex(problem);
      if (reference.optimal())
        simplex_j.push_back(cpu.estimate(reference.wall_seconds).energy_j);
      const auto software = core::solve_pdip(problem);
      if (software.optimal())
        pdip_j.push_back(cpu.estimate(software.wall_seconds).energy_j);
      for (std::size_t v = 0; v < config.variations.size(); ++v) {
        core::XbarPdipOptions options;
        options.hardware.crossbar.variation =
            config.variations[v] > 0.0
                ? mem::VariationModel::uniform(config.variations[v])
                : mem::VariationModel::none();
        options.seed = config.seed + 1000 * m + trial;
        // Throughput benches run the settle-cache reuse path; exact mode is
        // reserved for bit-exact golden traces.
        options.hardware.crossbar.settle_mode = xbar::SettleMode::kReuse;
        const auto before = run.ledger().tree();
        const auto outcome = core::solve_xbar_pdip(problem, options);
        if (outcome.result.optimal()) {
          const auto delta =
              bench::cost_tree_delta(before, run.ledger().tree());
          xbar_j[v].push_back(
              perf::split_programming(delta, hardware).iterative_cost.energy_j);
        }
      }
    }
    std::vector<std::string> row{TextTable::num((long long)m),
                                 TextTable::num(bench::mean(simplex_j), 4),
                                 TextTable::num(bench::mean(pdip_j), 4)};
    double best = 0.0;
    for (auto& samples : xbar_j) {
      const double value = bench::mean(samples);
      row.push_back(TextTable::num(value, 4));
      if (best == 0.0 || (value > 0.0 && value < best)) best = value;
    }
    row.push_back(best > 0.0
                      ? TextTable::num(bench::mean(simplex_j) / best, 3) + "x"
                      : "-");
    table.add_row(row);
    // Regression metrics at the sweep's largest size (see fig6a_latency).
    if (m == config.sizes.back()) {
      run.metric("simplex_energy_j", bench::mean(simplex_j),
                 {"J", true, /*measured=*/true});
      run.metric("pdip_energy_j", bench::mean(pdip_j),
                 {"J", true, /*measured=*/true});
      for (std::size_t v = 0; v < config.variations.size(); ++v)
        run.metric(
            "xbar_energy_est_j/var=" + bench::percent(config.variations[v]),
            bench::mean(xbar_j[v]), {"J", true, /*measured=*/false});
    }
    std::fflush(stdout);
  }
  run.table(table);
  std::printf(
      "\npaper at m=1024: 218.1 J vs 0.9-12.1 J (>=24x reduction); energy "
      "grows with the variation level.\n");
  return run.finish();
}
