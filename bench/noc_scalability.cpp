// §3.4 scalability: one fixed problem, shrinking crossbar tiles.
//
// The NoC exists because manufacturable arrays are bounded (§3.4); this
// harness solves a fixed LP while sweeping the tile size from "one big
// array" down to small tiles, reporting how tile count, data movement, and
// the latency estimate respond — the scalability trade-off of Fig. 3.
#include <cstdio>
#include <vector>

#include "artifact.hpp"
#include "bench_util.hpp"
#include "core/xbar_pdip.hpp"
#include "engine/batch.hpp"
#include "lp/result.hpp"
#include "perf/hardware_model.hpp"
#include "solvers/simplex.hpp"

using namespace memlp;

int main() {
  const auto config = bench::SweepConfig::from_env();
  bench::BenchRun run("noc_scalability",
                      "§3.4 — NoC scalability vs tile size",
                      "fixed problem, shrinking manufacturable arrays",
                      config);
  const std::size_t m = config.sizes.back();
  const perf::HardwareModel hardware;

  const auto problem = bench::feasible_problem(config, m, 0);
  const auto reference = solvers::solve_simplex(problem);
  if (!reference.optimal()) {
    std::printf("reference solve failed\n");
    return 1;
  }
  std::printf("problem: m=%zu, n=%zu (system dim grows to ~3(n+m))\n\n",
              problem.num_constraints(), problem.num_variables());

  TextTable table("crossbar PDIP across tile sizes (10% variation)");
  table.set_header({"tile dim", "tiles", "NoC transfers", "value-hops",
                    "est. latency [ms]", "relative error"});
  // The five tilings are independent solves of the same problem — fan them
  // out as one heterogeneous batch (MEMLP_THREADS workers).
  const std::vector<std::size_t> tile_dims{0, 128, 64, 32, 16};
  std::vector<engine::BatchItem> items;
  for (const std::size_t tile_dim : tile_dims) {
    core::XbarPdipOptions options;
    options.hardware.crossbar.variation = mem::VariationModel::uniform(0.10);
    if (tile_dim != 0) {
      options.hardware.force_noc = true;
      options.hardware.tile_dim = tile_dim;
    }
    options.seed = config.seed;
    engine::BatchItem item;
    item.problem = &problem;
    item.request.solver = "xbar";
    item.request.xbar = options;
    items.push_back(item);
  }
  const auto outcomes = engine::solve_batch(items);
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const std::size_t tile_dim = tile_dims[k];
    const auto& outcome = outcomes[k];
    std::string error = "-";
    if (outcome.result.optimal())
      error = bench::percent(
          lp::relative_error(outcome.result.objective, reference.objective));
    const auto cost = hardware.estimate(outcome.stats);
    table.add_row(
        {tile_dim == 0 ? "monolithic" : TextTable::num((long long)tile_dim),
         TextTable::num((long long)outcome.stats.backend.num_tiles),
         TextTable::num((long long)outcome.stats.backend.noc.transfers),
         TextTable::num((long long)outcome.stats.backend.noc.value_hops),
         TextTable::num(cost.latency_s * 1e3, 4), error});
    std::fflush(stdout);
  }
  run.table(table);
  std::printf(
      "\nexpected: identical accuracy at every tiling; data movement and "
      "latency grow as tiles shrink — the cost of manufacturability.\n");
  run.export_metrics();
  return run.finish();
}
