#include "obs/context.hpp"

#include <atomic>
#include <cstddef>

#include "common/par.hpp"
#include "obs/trace.hpp"

namespace memlp::obs {
namespace {

thread_local const SolveContext* t_context = nullptr;

// Snapshot of the launching thread's context for the one in-flight pooled
// region. Written by the region-begin hook before the job is published and
// read by workers executing that job's chunks; the pool's job hand-off
// (and its one-region-at-a-time serialization) orders every access — the
// same argument that makes the profiler's g_region_prefix safe.
SolveContext g_region_context;     // NOLINT(cert-err58-cpp)
bool g_region_context_valid = false;

void capture_region_context() noexcept {
  if (t_context != nullptr) {
    g_region_context = *t_context;
    g_region_context_valid = true;
  } else {
    g_region_context_valid = false;
  }
}

void ensure_region_hook_installed() {
  static const bool installed = [] {
    par::set_region_begin_hook(&capture_region_context);
    return true;
  }();
  (void)installed;
}

}  // namespace

const SolveContext* current_solve_context() noexcept {
  if (t_context != nullptr) return t_context;
  if (par::in_parallel_region() && g_region_context_valid)
    return &g_region_context;
  return nullptr;
}

std::uint64_t mint_trace_ids(std::size_t count) {
  static std::atomic<std::uint64_t> next{1};
  if (count == 0) count = 1;
  return next.fetch_add(count, std::memory_order_relaxed);
}

void annotate_context(Event& event) {
  const SolveContext* context = current_solve_context();
  if (context == nullptr || !context->valid()) return;
  event.with("trace_id", context->trace_id);
  event.with("solve_id", context->solve_id);
}

ScopedSolveContext::ScopedSolveContext(SolveContext context)
    : context_(context), previous_(t_context) {
  ensure_region_hook_installed();
  t_context = &context_;
}

ScopedSolveContext::~ScopedSolveContext() { t_context = previous_; }

}  // namespace memlp::obs
