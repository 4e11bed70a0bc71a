// Diet-planning example: the classic cost-minimization LP (Stigler) solved
// end-to-end on the crossbar — generate, presolve, solve, verify, and save
// the instance as MPS for the `memlp_solve` CLI.
#include <cstdio>
#include <fstream>

#include "common/rng.hpp"
#include "core/xbar_pdip.hpp"
#include "lp/generator.hpp"
#include "lp/mps.hpp"
#include "lp/presolve.hpp"
#include "solvers/simplex.hpp"

int main() {
  using namespace memlp;

  Rng rng(17);
  const auto problem = lp::diet(/*foods=*/10, /*nutrients=*/6, rng);
  std::printf("diet LP: %zu foods, %zu nutrient minimums + portion caps "
              "(%zu rows)\n",
              problem.num_variables(), std::size_t{6},
              problem.num_constraints());

  // Presolve (no-op here, but part of the production pipeline).
  const auto pre = lp::presolve(problem);
  if (pre.outcome != lp::PresolveResult::Outcome::kReduced) {
    std::printf("presolve classified the problem as %s\n",
                pre.outcome == lp::PresolveResult::Outcome::kInfeasible
                    ? "infeasible"
                    : "unbounded");
    return 1;
  }
  std::printf("presolve: removed %zu rows, %zu columns\n",
              pre.removed_rows(problem), pre.removed_columns(problem));

  const auto exact = solvers::solve_simplex(pre.reduced);
  core::XbarPdipOptions options;
  options.hardware.crossbar.variation = mem::VariationModel::uniform(0.10);
  options.seed = 3;
  const auto outcome = core::solve_xbar_pdip(pre.reduced, options);
  if (!outcome.result.optimal() || !exact.optimal()) {
    std::printf("solve failed: %s\n",
                lp::to_string(outcome.result.status).c_str());
    return 1;
  }
  const Vec portions =
      pre.restore(outcome.result.x, problem.num_variables());
  std::printf("\nminimal daily cost: %.3f (exact %.3f, error %.2f%%)\n",
              -outcome.result.objective, -exact.objective,
              100.0 * lp::relative_error(outcome.result.objective,
                                         exact.objective));
  std::printf("portions:");
  for (double portion : portions) std::printf(" %.2f", portion);
  std::printf("\n");

  // Save as MPS (usable with tools/memlp_solve).
  const char* path = "diet_example.mps";
  std::ofstream file(path);
  file << lp::to_mps(problem, "DIET");
  std::printf("\ninstance written to %s — try:  memlp_solve --solver xbar "
              "%s\n",
              path, path);
  return 0;
}
