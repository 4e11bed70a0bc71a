// §4.3 observation: "we tested Matlab linprog function with matrices with
// process variation. To our surprise, relative error is similar to what we
// get from PDIP solver simulation. It can be concluded that linear programs
// are not affected by process variation too much; the larger the size, the
// less impact process variation could result."
//
// This harness perturbs A by Eq. (18) and solves the perturbed problem
// *exactly* (simplex), comparing the optimum against the unperturbed one —
// isolating the LP's intrinsic variation tolerance from the solver.
#include <cstdio>
#include <vector>

#include "artifact.hpp"
#include "bench_util.hpp"
#include "core/xbar_pdip.hpp"
#include "engine/batch.hpp"
#include "lp/result.hpp"
#include "memristor/variation.hpp"
#include "solvers/simplex.hpp"

using namespace memlp;

int main() {
  const auto config = bench::SweepConfig::from_env();
  bench::BenchRun run("variation_tolerance",
                      
      "§4.3 — intrinsic variation tolerance of linear programs",
      "exact solve of Eq.(18)-perturbed problems vs the crossbar solver",
      config);

  TextTable table("mean relative error at 10% variation");
  table.set_header(
      {"m", "exact solve of perturbed LP", "crossbar solver", "ratio"});

  for (const std::size_t m : config.sizes) {
    std::vector<double> exact_errors;
    std::vector<double> xbar_errors;
    // Serial pass: instances, exact references, and the perturbed exact
    // solves. The crossbar solves are queued for a batched fan-out.
    std::vector<lp::LinearProgram> problems;
    problems.reserve(config.trials);
    std::vector<engine::BatchItem> items;
    std::vector<double> reference_objectives;
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      problems.push_back(bench::feasible_problem(config, m, trial));
      const auto& problem = problems.back();
      const auto reference = solvers::solve_simplex(problem);
      if (!reference.optimal()) continue;

      // Exact solve of the perturbed problem.
      lp::LinearProgram perturbed = problem;
      Rng rng(config.seed + 7000 * m + trial);
      Matrix perturbed_a = perturbed.a.to_dense();
      mem::VariationModel::uniform(0.10).perturb(perturbed_a, rng);
      perturbed.a = std::move(perturbed_a);
      const auto perturbed_result = solvers::solve_simplex(perturbed);
      if (perturbed_result.optimal())
        exact_errors.push_back(lp::relative_error(perturbed_result.objective,
                                                  reference.objective));

      // Crossbar solve of the original problem at the same variation level.
      engine::BatchItem item;
      item.problem = &problem;
      item.request.solver = "xbar";
      item.request.xbar.emplace();
      item.request.xbar->hardware.crossbar.variation =
          mem::VariationModel::uniform(0.10);
      item.request.xbar->seed = config.seed + 1000 * m + trial;
      items.push_back(item);
      reference_objectives.push_back(reference.objective);
    }
    const auto outcomes = engine::solve_batch(items);
    for (std::size_t k = 0; k < outcomes.size(); ++k)
      if (outcomes[k].result.optimal())
        xbar_errors.push_back(lp::relative_error(
            outcomes[k].result.objective, reference_objectives[k]));
    const double exact = bench::mean(exact_errors);
    const double xbar = bench::mean(xbar_errors);
    table.add_row({TextTable::num((long long)m), bench::percent(exact),
                   bench::percent(xbar),
                   exact > 0.0 ? TextTable::num(xbar / exact, 3) : "-"});
    std::fflush(stdout);
  }
  run.table(table);
  std::printf(
      "\npaper: the two error levels are similar — LPs are inherently "
      "variation-tolerant, increasingly so with size.\n");
  return run.finish();
}
