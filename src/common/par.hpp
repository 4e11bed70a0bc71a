// memlp::par — minimal deterministic threading layer.
//
// A chunked thread pool (plain std::thread + std::atomic, no work stealing):
// one process-wide pool whose workers claim contiguous index chunks off an
// atomic counter. It exists for the three places that dominate wall time —
// per-tile crossbar operations (noc/tiled.cpp), dense row elimination
// (linalg/lu.cpp), and fanning independent LPs across the pool
// (engine/batch.hpp).
//
// Determinism contract: a parallel region must produce bit-identical results
// at every thread count. The pool guarantees that each index in [0, count)
// is visited exactly once; the *caller* guarantees that
//   * the work done for index i is independent of which thread runs it and
//     of chunk boundaries (per-index state only — e.g. per-tile split RNGs),
//   * any cross-index reduction is order-insensitive (integer counters) or
//     merged by the caller in index order after the region.
// Every parallel site in memlp follows this contract; test_par asserts it.
//
// Thread count resolution: an explicit per-call `threads` argument wins;
// 0 defers to default_threads() (the MEMLP_THREADS environment variable,
// else std::thread::hardware_concurrency). Nested regions — a parallel_for
// issued from inside a worker or from a thread already running a region —
// execute inline on the calling thread, so composed parallel code (batched
// solves over tiled backends) neither deadlocks nor oversubscribes.
#pragma once

#include <cstddef>
#include <functional>

namespace memlp::par {

/// Worker count used when a call passes `threads = 0`: MEMLP_THREADS when
/// set to a positive integer (clamped to 256), otherwise the hardware
/// concurrency (at least 1). Resolved once per process.
std::size_t default_threads();

/// Dense, stable per-thread slot index for observability buffers: each
/// thread (the main thread, pool workers, anything else) is assigned the
/// next free index on its first call and keeps it for its lifetime. Values
/// are < thread_slot_limit(); threads past the limit share the last slot,
/// so per-slot consumers must still guard each slot (the profiler holds one
/// lock per slot). Merging per-slot buffers in increasing slot order is the
/// deterministic-merge order the parallelism contract above prescribes.
std::size_t thread_slot() noexcept;

/// Exclusive upper bound on thread_slot() values (pool cap + main thread).
std::size_t thread_slot_limit() noexcept;

/// Observability hooks around pooled parallel execution, for building
/// per-thread timelines (memlp::obs::Profiler installs these; none by
/// default). All callbacks must be thread-safe and cheap:
///   * region_begin/region_end fire on the calling thread around one
///     Pool::run (regions are serialized, so these never overlap);
///     region_begin fires before any worker can observe the job.
///   * chunk fires on the executing thread (caller or worker) after each
///     completed chunk with the half-open index range and its duration.
/// The inline paths (threads <= 1, nested regions) bypass the pool and fire
/// no hooks — timelines describe pooled execution only, so aggregated
/// profiles stay identical at every thread count.
struct TimelineHooks {
  void (*region_begin)(std::size_t count, std::size_t threads);
  void (*region_end)(double elapsed_s);
  void (*chunk)(std::size_t slot, std::size_t begin, std::size_t end,
                double elapsed_s);
};

/// Installs (nullptr clears) the process-wide timeline hooks. The pointed-to
/// struct must outlive all parallel regions; install before regions run.
void set_timeline_hooks(const TimelineHooks* hooks) noexcept;

/// Second, independent region-begin channel (the profiler owns the
/// TimelineHooks one): `hook` fires on the launching thread under the
/// pool's region serialization, before any worker can observe the job —
/// state it writes is visible to every worker of that region. Used by
/// memlp::obs to propagate the per-solve trace context into pooled worker
/// chunks (obs/context.hpp). nullptr clears. Like the timeline hooks, the
/// inline paths (threads <= 1, nested regions) fire nothing — they stay on
/// the calling thread, where thread-local state already applies.
void set_region_begin_hook(void (*hook)() noexcept) noexcept;

/// True on a thread currently executing inside a parallel region (pool
/// worker or a caller participating in its own region). Such threads run
/// further parallel_for calls inline.
bool in_parallel_region() noexcept;

/// Runs body(begin, end) over disjoint ranges covering [0, count), each at
/// most `grain` long, distributed across up to `threads` threads (0 =
/// default_threads()). The calling thread participates. Exceptions thrown by
/// `body` are rethrown on the calling thread (first one wins).
void parallel_for_ranges(std::size_t count, std::size_t grain,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t threads = 0);

/// Runs body(i) for every i in [0, count) (grain 1 — right for coarse items
/// like crossbar tiles or whole LP solves).
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace memlp::par
