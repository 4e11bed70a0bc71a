// Tests for the latency/energy cost model.
#include <gtest/gtest.h>

#include "perf/hardware_model.hpp"

namespace memlp::perf {
namespace {

core::XbarSolveStats make_stats() {
  core::XbarSolveStats stats;
  stats.backend.xbar.cells_written = 1'000;
  stats.backend.xbar.write_pulses = 5'000;
  stats.backend.xbar.mvm_ops = 30;
  stats.backend.xbar.solve_ops = 30;
  stats.amps.vector_ops = 90;
  stats.amps.element_ops = 9'000;
  stats.iterations = 30;
  // 400 of the written cells were the initial O(N²) programming.
  stats.programming.xbar.cells_written = 400;
  stats.programming.xbar.write_pulses = 2'000;
  stats.programming.xbar.full_programs = 1;
  return stats;
}

TEST(HardwareModel, PricesEachComponent) {
  HardwareCostConstants constants;
  constants.settle_s = 1.0;
  constants.write_cell_s = 10.0;
  constants.write_pulse_s = 100.0;
  constants.amp_vector_op_s = 1000.0;
  constants.noc_value_hop_s = 0.0;
  constants.controller_iteration_s = 0.0;
  const HardwareModel model(constants);

  // No programming record: estimate() prices every backend counter.
  core::XbarSolveStats stats;
  stats.backend.xbar.mvm_ops = 2;
  stats.backend.xbar.cells_written = 3;
  stats.backend.xbar.write_pulses = 4;
  stats.amps.vector_ops = 5;
  const auto cost = model.estimate(stats);
  EXPECT_DOUBLE_EQ(cost.latency_s, 2 * 1.0 + 3 * 10.0 + 4 * 100.0 + 5000.0);
}

TEST(HardwareModel, EstimateExcludesProgramming) {
  const HardwareModel model;
  const auto stats = make_stats();
  const auto iterative = model.estimate(stats);
  const auto programming = model.estimate_programming(stats);
  // Totals decompose exactly: pricing the whole record (no programming
  // split) equals iterative + programming (the controller term only counts
  // iterations once).
  auto whole = stats;
  whole.programming = {};
  const auto total = model.estimate(whole);
  EXPECT_NEAR(iterative.latency_s + programming.latency_s, total.latency_s,
              1e-12);
  EXPECT_NEAR(iterative.energy_j + programming.energy_j, total.energy_j,
              1e-9);
  EXPECT_GT(programming.latency_s, 0.0);
  EXPECT_GT(iterative.latency_s, programming.latency_s);
}

TEST(HardwareModel, MoreVariationMeansMoreIterationsMeansMoreCost) {
  const HardwareModel model;
  auto low = make_stats();
  auto high = make_stats();
  high.iterations *= 3;
  high.backend.xbar.cells_written *= 3;
  EXPECT_GT(model.estimate(high).latency_s, model.estimate(low).latency_s);
  EXPECT_GT(model.estimate(high).energy_j, model.estimate(low).energy_j);
}

TEST(HardwareModel, NocHopsAreCharged) {
  const HardwareModel model;
  auto with_noc = make_stats();
  with_noc.backend.noc.value_hops = 1'000'000;
  EXPECT_GT(model.estimate(with_noc).latency_s,
            model.estimate(make_stats()).latency_s);
}

TEST(CostEstimate, Accumulates) {
  CostEstimate a{1.0, 2.0};
  a += CostEstimate{0.5, 0.25};
  EXPECT_DOUBLE_EQ(a.latency_s, 1.5);
  EXPECT_DOUBLE_EQ(a.energy_j, 2.25);
}

TEST(CpuModel, EnergyIsPowerTimesTime) {
  const CpuModel cpu;
  const auto cost = cpu.estimate(2.0);
  EXPECT_DOUBLE_EQ(cost.latency_s, 2.0);
  EXPECT_DOUBLE_EQ(cost.energy_j, 70.0);  // 35 W default
}

TEST(HardwareModel, DefaultConstantsLandInPaperBallpark) {
  // A 1024-constraint solve in the paper: tens of ms, ~1 J. Synthesize the
  // operation counts of ~30 iterations at N = n+m = 1365.
  core::XbarSolveStats stats;
  const std::size_t n_plus_m = 1365;
  stats.iterations = 30;
  stats.backend.xbar.cells_written = 2 * n_plus_m * stats.iterations;
  stats.backend.xbar.write_pulses = stats.backend.xbar.cells_written * 5;
  stats.backend.xbar.mvm_ops = stats.iterations;
  stats.backend.xbar.solve_ops = stats.iterations;
  stats.amps.vector_ops = 4 * stats.iterations;
  stats.amps.element_ops = 4 * n_plus_m * stats.iterations;
  const HardwareModel model;
  const auto cost = model.estimate(stats);
  EXPECT_GT(cost.latency_s, 5e-3);
  EXPECT_LT(cost.latency_s, 500e-3);
  EXPECT_GT(cost.energy_j, 0.05);
  EXPECT_LT(cost.energy_j, 5.0);
}

}  // namespace
}  // namespace memlp::perf
