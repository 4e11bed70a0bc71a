// Fig. 5(a): accuracy of the memristor crossbar-based LP solver.
//
// Reproduces: "Accuracy simulation results of memristor crossbar-based
// linear program solver. Results are compared to Matlab linprog function.
// Number of constraints varies from 4 to 1024." The paper reports 0.2%–9.9%
// relative error across 0–20% process variation, decreasing with problem
// size. The exact reference here is the two-phase simplex solver.
//
// The per-trial crossbar solves are independent (per-trial seeds), so each
// (m, variation) cell fans out through engine::solve_batch; MEMLP_THREADS
// controls the worker count and the results are identical at any value.
#include <cstdio>
#include <vector>

#include "artifact.hpp"
#include "bench_util.hpp"
#include "core/xbar_pdip.hpp"
#include "engine/batch.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

using namespace memlp;

int main() {
  const auto config = bench::SweepConfig::from_env();
  bench::BenchRun run("fig5a_accuracy",
                      "Fig. 5(a) — crossbar PDIP solver accuracy",
                      "relative error vs exact optimum, 0/5/10/20% variation",
                      config);

  TextTable table("mean relative error (feasible LPs)");
  std::vector<std::string> header{"m", "n"};
  for (double variation : config.variations)
    header.push_back("var=" + bench::percent(variation));
  header.emplace_back("non-optimal");
  table.set_header(header);

  for (const std::size_t m : config.sizes) {
    std::vector<std::string> row{TextTable::num((long long)m),
                                 TextTable::num((long long)(m / 3 ? m / 3 : 1))};
    // The instances and their exact optima are variation-independent:
    // generate and reference-solve each trial once per m.
    std::vector<lp::LinearProgram> problems;
    std::vector<lp::SolveResult> references;
    problems.reserve(config.trials);
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      problems.push_back(bench::feasible_problem(config, m, trial));
      references.push_back(solvers::solve_simplex(problems.back()));
    }
    std::size_t failures = 0;
    for (const double variation : config.variations) {
      std::vector<engine::BatchItem> items;
      std::vector<double> reference_objectives;
      for (std::size_t trial = 0; trial < config.trials; ++trial) {
        if (!references[trial].optimal()) continue;
        core::XbarPdipOptions options;
        options.hardware.crossbar.variation =
            variation > 0.0 ? mem::VariationModel::uniform(variation)
                            : mem::VariationModel::none();
        options.seed = config.seed + 1000 * m + trial;
        // Benches run the settle-cache's rank-k reuse path (the exact mode
        // exists for bit-exact golden traces; reuse is the production
        // default for throughput runs).
        options.hardware.crossbar.settle_mode = xbar::SettleMode::kReuse;
        engine::BatchItem item;
        item.problem = &problems[trial];
        item.request.solver = "xbar";
        item.request.xbar = options;
        items.push_back(item);
        reference_objectives.push_back(references[trial].objective);
      }
      const auto outcomes = engine::solve_batch(items);
      std::vector<double> errors;
      for (std::size_t k = 0; k < outcomes.size(); ++k) {
        if (!outcomes[k].result.optimal()) {
          ++failures;
          continue;
        }
        errors.push_back(lp::relative_error(outcomes[k].result.objective,
                                            reference_objectives[k]));
      }
      row.push_back(bench::percent(bench::mean(errors)));
      // Accuracy at the sweep's largest size is deterministic given the
      // seed — a tight regression signal for solver-fidelity changes. The
      // same cells re-solved in exact settle mode pin reuse-vs-exact parity:
      // a drifting rank-k correction shows up as these two metrics split.
      if (m == config.sizes.back()) {
        run.metric("rel_error/var=" + bench::percent(variation),
                   bench::mean(errors), {"frac", true, /*measured=*/false});
        std::vector<engine::BatchItem> exact_items = items;
        for (auto& item : exact_items)
          item.request.xbar->hardware.crossbar.settle_mode =
              xbar::SettleMode::kExact;
        const auto exact_outcomes = engine::solve_batch(exact_items);
        std::vector<double> exact_errors;
        for (std::size_t k = 0; k < exact_outcomes.size(); ++k)
          if (exact_outcomes[k].result.optimal())
            exact_errors.push_back(lp::relative_error(
                exact_outcomes[k].result.objective, reference_objectives[k]));
        run.metric("rel_error_exact/var=" + bench::percent(variation),
                   bench::mean(exact_errors),
                   {"frac", true, /*measured=*/false});
      }
    }
    row.push_back(TextTable::num((long long)failures));
    table.add_row(row);
    std::fflush(stdout);
  }
  run.table(table);
  std::printf(
      "\npaper: 0.2%%-9.9%% relative error; inaccuracy decreases with the "
      "number of constraints.\n");
  return run.finish();
}
