// The batch front door: fan independent LP solves — of ANY registered
// solver, mixed freely — across the memlp::par pool.
//
// The paper's evaluation (and any Monte-Carlo use of the simulator) solves
// many independent LPs: accuracy sweeps over variation draws, tolerance
// studies over random instances. Each item resolves its solver by name and
// owns its crossbar state and RNG stream (its request carries its own
// seed), so the fan-out is embarrassingly parallel and bit-identical at
// every thread count: item i's report depends only on (problem i, request
// i), never on scheduling. Solver-level tracing and MetricsRegistry
// counters are thread-safe, so a shared sink sees whole, untorn records
// from concurrent solves.
//
// Tiled backends inside a batch run their per-tile loops inline (nested
// parallel regions serialize, see common/par.hpp) — the batch level owns
// the threads.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "engine/registry.hpp"
#include "lp/problem.hpp"

namespace memlp::engine {

/// One entry of the batch: a problem with its own request (its own solver
/// kind, seed, hardware, tracing, ...).
struct BatchItem {
  const lp::LinearProgram* problem = nullptr;
  SolveRequest request{};
};

/// Solves every item through SolverRegistry::global() across the memlp::par
/// pool (`threads` 0 = par::default_threads()). Report i corresponds to
/// items[i] regardless of thread count. Every item's problem must be
/// non-null and every item's solver name registered (checked up front, so a
/// bad batch fails before any work starts).
std::vector<SolveReport> solve_batch(std::span<const BatchItem> items,
                                     std::size_t threads = 0);

}  // namespace memlp::engine
