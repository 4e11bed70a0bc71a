#include "perf/hardware_model.hpp"

namespace memlp::perf {
namespace {

/// The ledger counters of a backend record plus solver-level amplifier
/// operations and controller iterations. Integer sums, so pricing the result
/// is exact to the counter.
obs::CostCounters to_counters(const core::BackendStats& backend,
                              const xbar::AmplifierStats& amps,
                              std::size_t iterations) {
  obs::CostCounters counters;
  counters.settles = backend.xbar.mvm_ops + backend.xbar.solve_ops +
                     backend.noc.global_settles;
  counters.cells_written = backend.xbar.cells_written;
  counters.write_pulses = backend.xbar.write_pulses;
  counters.amp_vector_ops = backend.amps.vector_ops + amps.vector_ops;
  counters.amp_element_ops = backend.amps.element_ops + amps.element_ops;
  counters.noc_value_hops = backend.noc.value_hops;
  counters.controller_iterations = iterations;
  return counters;
}

}  // namespace

CostEstimate HardwareModel::price_counters(
    const obs::CostCounters& counters) const {
  const auto& k = constants_;
  CostEstimate cost;

  const double settles = static_cast<double>(counters.settles);
  const double cells = static_cast<double>(counters.cells_written);
  const double pulses = static_cast<double>(counters.write_pulses);
  const double amp_ops = static_cast<double>(counters.amp_vector_ops);
  const double amp_elements = static_cast<double>(counters.amp_element_ops);
  const double hops = static_cast<double>(counters.noc_value_hops);
  const double iters = static_cast<double>(counters.controller_iterations);

  cost.latency_s = settles * k.settle_s + cells * k.write_cell_s +
                   pulses * k.write_pulse_s + amp_ops * k.amp_vector_op_s +
                   hops * k.noc_value_hop_s +
                   iters * k.controller_iteration_s;
  cost.energy_j = settles * k.settle_j + cells * k.write_cell_j +
                  pulses * k.write_pulse_j + amp_elements * k.amp_element_j +
                  hops * k.noc_value_hop_j + iters * k.controller_iteration_j;
  return cost;
}

CostEstimate HardwareModel::estimate(const core::XbarSolveStats& stats) const {
  const core::BackendStats iterative =
      stats.backend.since(stats.programming);
  return price_counters(to_counters(iterative, stats.amps, stats.iterations));
}

CostEstimate HardwareModel::estimate_programming(
    const core::XbarSolveStats& stats) const {
  return price_counters(to_counters(stats.programming, {}, 0));
}

}  // namespace memlp::perf
