// Ablation: sparsity across the problem pipeline (§3.5).
//
// "the initialization time complexity is O(N²) for dense matrices, and will
// be lower for sparse matrices that are common in linear programs." —
// structurally zero cells stay at the erased conductance level for free, so
// the one-off programming cost scales with the number of nonzeros, and
// all-zero shards of the tiled structure are skipped outright.
//
// The harness sweeps a density × N grid and reports, per cell:
//   * nnz(A),
//   * the tiled crossbar's zero-shard count and programmed cells,
//   * the wall time of the whole xbar solve (programming, write_state, MVM
//     and settle) and its accuracy.
// memlp_report gates the deterministic rows (nnz, zero shards, programmed
// cells) against results/json/baseline.
#include <cstdio>
#include <string>

#include "artifact.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/xbar_pdip.hpp"
#include "lp/generator.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

using namespace memlp;

int main() {
  auto config = bench::SweepConfig::from_env();
  bench::BenchRun run("ablation_sparsity",
                      "Ablation — sparsity across the problem pipeline",
                      "programming and shard count scale with nnz, not N^2",
                      config);

  // --- density × N grid -------------------------------------------------
  // Small tile_dim so even the smoke sizes shard the KKT system and expose
  // its structurally-zero blocks to the zero-shard skip.
  constexpr std::size_t kGridTileDim = 8;
  TextTable table("sparsity grid (xbar PDIP, NoC tiles of 8, no variation)");
  table.set_header({"m", "density", "nnz(A)", "zero shards", "shards",
                    "program cells", "xbar solve [ms]", "relative error"});
  for (const std::size_t m : config.sizes) {
    for (const double density : {0.05, 0.25, 1.0}) {
      Rng rng(config.seed + 31 * m);
      lp::GeneratorOptions generator;
      generator.constraints = m;
      generator.sparsity = 1.0 - density;
      const auto problem = lp::random_feasible(generator, rng);
      const auto nnz = static_cast<double>(problem.a.nnz());

      const auto reference = solvers::solve_simplex(problem);
      core::XbarPdipOptions options;
      options.seed = config.seed + m;
      options.hardware.force_noc = true;
      options.hardware.tile_dim = kGridTileDim;
      Stopwatch solve_timer;
      const auto outcome = core::solve_xbar_pdip(problem, options);
      const double solve_ms = solve_timer.seconds() * 1e3;
      const double error =
          outcome.result.optimal() && reference.optimal()
              ? lp::relative_error(outcome.result.objective,
                                   reference.objective)
              : 1.0;
      const auto& backend = outcome.stats.backend;
      table.add_row(
          {TextTable::num(static_cast<double>(m), 0), bench::percent(density),
           TextTable::num(nnz, 0),
           TextTable::num(static_cast<double>(backend.zero_tiles), 0),
           TextTable::num(static_cast<double>(backend.num_tiles), 0),
           TextTable::num(
               static_cast<double>(outcome.stats.programming.xbar.cells_written),
               0),
           TextTable::num(solve_ms, 3), bench::percent(error)});

      const std::string cell =
          "/m" + std::to_string(m) + "/d" +
          std::to_string(static_cast<int>(density * 100));
      run.metric("nnz" + cell, nnz, {.unit = "cells", .measured = false});
      run.metric("zero_shards" + cell,
                 static_cast<double>(backend.zero_tiles),
                 {.unit = "tiles", .lower_is_better = false,
                  .measured = false});
      run.metric("program_cells" + cell,
                 static_cast<double>(
                     outcome.stats.programming.xbar.cells_written),
                 {.unit = "cells", .measured = false});
      run.metric("solve_wall_ms" + cell, solve_ms,
                 {.unit = "ms", .measured = true});
    }
  }
  run.table(table);

  std::printf(
      "\nexpected: programming cells fall with density while accuracy "
      "holds; all-zero shards of the tile grid are never programmed.\n");
  return run.finish();
}
