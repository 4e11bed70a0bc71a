// memlp::obs — per-solve trace-context propagation.
//
// A serving-style run (engine::solve_batch with mixed solver kinds, or the
// future memlp_serve daemon) interleaves many solves onto one trace stream
// and one metrics registry. `SolveContext` is the identity that makes the
// interleaving attributable: every solve carries {trace_id, solve_id,
// attempt}, and every sink stamps the active context onto the
// events it writes — so a mixed batch trace can be filtered by `trace_id`
// back to exactly one solve's phase/iteration/cost history.
//
// Propagation model (mirrors obs::Profiler's call-path inheritance,
// docs/parallelism.md):
//   * `ScopedSolveContext` installs a context on the calling thread
//     (thread-local, restored on destruction — nesting is allowed and the
//     innermost context wins).
//   * Pooled parallel regions inherit the launching thread's context: the
//     region-begin hook (par::set_region_begin_hook) snapshots it before
//     the job is published, and a worker with no context of its own reads
//     the snapshot while executing region chunks. Batch items install their
//     own context inside the worker body, so per-item attribution is exact
//     and — like everything else in memlp::par — independent of the thread
//     count (reports and ids are assigned by index, merged in index order).
//   * Minting is deterministic where determinism matters: solve_batch mints
//     one contiguous trace-id block up front on the calling thread (item i
//     gets base + i and solve_id i), so ids are identical at every
//     MEMLP_THREADS value.
//
// Cost discipline: reading the current context is one thread-local load;
// annotation work happens only inside sinks that are already formatting an
// event. With no context installed nothing is stamped — which keeps the
// golden engine traces (core-wrapper solves, no registry) bit-exact.
#pragma once

#include <cstddef>
#include <cstdint>

namespace memlp::obs {

class Event;

/// Identity of one solve inside a run. `trace_id` is unique per solve
/// process-wide (minted from an atomic counter, starting at 1; 0 means "no
/// context"); `solve_id` is the stable position of the solve inside its
/// batch (0 for single solves); `attempt` is the 1-based analog retry index
/// (0 = whole-solve scope).
struct SolveContext {
  std::uint64_t trace_id = 0;
  std::uint64_t solve_id = 0;
  std::uint32_t attempt = 0;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// The context governing the calling thread: its own installed context if
/// any, else the launching thread's context when inside a pooled parallel
/// region, else nullptr. The pointer stays valid for the duration of the
/// enclosing ScopedSolveContext / parallel region.
[[nodiscard]] const SolveContext* current_solve_context() noexcept;

/// Reserves `count` consecutive trace ids and returns the first. Ids are
/// process-unique and never 0.
std::uint64_t mint_trace_ids(std::size_t count = 1);

/// Appends `trace_id`/`solve_id` to `event` iff a context is active on the
/// calling thread. Sinks call this at emit
/// time so instrumentation sites stay context-free.
void annotate_context(Event& event);

/// RAII context installer: installs `context` as the calling thread's
/// current context, restoring the previous one (possibly none) on
/// destruction. Also installs the par region-begin hook on first use so
/// pooled regions launched under a context inherit it.
class ScopedSolveContext {
 public:
  explicit ScopedSolveContext(SolveContext context);
  ScopedSolveContext(const ScopedSolveContext&) = delete;
  ScopedSolveContext& operator=(const ScopedSolveContext&) = delete;
  ~ScopedSolveContext();

  /// The installed context (mutable so drivers can advance `attempt`).
  [[nodiscard]] SolveContext& context() noexcept { return context_; }
  [[nodiscard]] const SolveContext& context() const noexcept {
    return context_;
  }

 private:
  SolveContext context_;
  const SolveContext* previous_;
};

}  // namespace memlp::obs
