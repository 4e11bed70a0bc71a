// End-to-end integration tests: all four solvers on the same problems,
// through the public API exactly as the examples and benches use it.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/ls_pdip.hpp"
#include "core/pdip.hpp"
#include "core/xbar_pdip.hpp"
#include "lp/generator.hpp"
#include "lp/result.hpp"
#include "perf/hardware_model.hpp"
#include "solvers/simplex.hpp"

namespace memlp {
namespace {

TEST(Integration, FourSolversAgreeOnRoutingLp) {
  Rng rng(1);
  const auto problem = lp::max_flow_routing(2, 3, rng);

  const auto simplex = solvers::solve_simplex(problem);
  ASSERT_EQ(simplex.status, lp::SolveStatus::kOptimal);

  const auto pdip = core::solve_pdip(problem);
  ASSERT_EQ(pdip.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(pdip.objective, simplex.objective), 1e-3);

  core::XbarPdipOptions xbar_options;
  xbar_options.seed = 7;
  const auto xbar = core::solve_xbar_pdip(problem, xbar_options);
  ASSERT_EQ(xbar.result.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(xbar.result.objective, simplex.objective),
            0.10);

  core::LsPdipOptions ls_options;
  ls_options.seed = 7;
  const auto ls = core::solve_ls_pdip(problem, ls_options);
  ASSERT_EQ(ls.result.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(ls.result.objective, simplex.objective), 0.15);
}

TEST(Integration, SchedulingLpThroughHardwareModel) {
  Rng rng(2);
  const auto problem = lp::production_scheduling(9, 6, rng);
  const auto reference = solvers::solve_simplex(problem);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);

  core::XbarPdipOptions options;
  options.hardware.crossbar.variation = mem::VariationModel::uniform(0.10);
  const auto outcome = core::solve_xbar_pdip(problem, options);
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);

  const perf::HardwareModel model;
  const auto hardware_cost = model.estimate(outcome.stats);
  const auto cpu_cost = perf::CpuModel{}.estimate(reference.wall_seconds);
  EXPECT_GT(hardware_cost.latency_s, 0.0);
  EXPECT_GT(hardware_cost.energy_j, 0.0);
  EXPECT_GT(cpu_cost.latency_s, 0.0);
}

TEST(Integration, InfeasibleDetectionAcrossSolvers) {
  Rng rng(3);
  lp::GeneratorOptions generator;
  generator.constraints = 16;
  const auto problem = lp::random_infeasible(generator, rng);
  EXPECT_EQ(solvers::solve_simplex(problem).status,
            lp::SolveStatus::kInfeasible);
  EXPECT_EQ(core::solve_pdip(problem).status, lp::SolveStatus::kInfeasible);
  EXPECT_EQ(core::solve_xbar_pdip(problem).result.status,
            lp::SolveStatus::kInfeasible);
  EXPECT_EQ(core::solve_ls_pdip(problem).result.status,
            lp::SolveStatus::kInfeasible);
}

TEST(Integration, VariationToleranceMirrorsPaperObservation) {
  // §4.3: perturbing A by Eq. (18) and solving *exactly* yields a relative
  // error comparable to the crossbar solver's — LPs are variation-tolerant.
  Rng rng(4);
  lp::GeneratorOptions generator;
  generator.constraints = 32;
  const auto problem = lp::random_feasible(generator, rng);
  const auto reference = solvers::solve_simplex(problem);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);

  lp::LinearProgram perturbed = problem;
  const mem::VariationModel variation = mem::VariationModel::uniform(0.10);
  Rng vrng(5);
  Matrix perturbed_a = perturbed.a.to_dense();
  variation.perturb(perturbed_a, vrng);
  perturbed.a = std::move(perturbed_a);
  const auto perturbed_result = solvers::solve_simplex(perturbed);
  ASSERT_EQ(perturbed_result.status, lp::SolveStatus::kOptimal);
  const double exact_under_variation =
      lp::relative_error(perturbed_result.objective, reference.objective);
  EXPECT_LT(exact_under_variation, 0.15);
}

TEST(Integration, TransportationLpEndToEnd) {
  Rng rng(6);
  const auto problem = lp::transportation(4, 5, rng);
  const auto reference = solvers::solve_simplex(problem);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  core::XbarPdipOptions options;
  options.hardware.crossbar.variation = mem::VariationModel::uniform(0.05);
  options.seed = 11;
  const auto outcome = core::solve_xbar_pdip(problem, options);
  ASSERT_EQ(outcome.result.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(lp::relative_error(outcome.result.objective, reference.objective),
            0.10);
}

TEST(Integration, WholePipelineIsDeterministic) {
  Rng rng_a(7);
  Rng rng_b(7);
  lp::GeneratorOptions generator;
  generator.constraints = 12;
  const auto problem_a = lp::random_feasible(generator, rng_a);
  const auto problem_b = lp::random_feasible(generator, rng_b);
  core::XbarPdipOptions options;
  options.hardware.crossbar.variation = mem::VariationModel::uniform(0.20);
  options.seed = 42;
  const auto a = core::solve_xbar_pdip(problem_a, options);
  const auto b = core::solve_xbar_pdip(problem_b, options);
  EXPECT_DOUBLE_EQ(a.result.objective, b.result.objective);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.backend.xbar.cells_written,
            b.stats.backend.xbar.cells_written);
}

}  // namespace
}  // namespace memlp
