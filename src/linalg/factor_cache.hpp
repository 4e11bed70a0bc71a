// Factorization reuse across re-solves of an unchanged matrix.
//
// The crossbar PDIP loop re-solves M·∆s = r every iteration, but a settle
// only needs a fresh factorization when a write actually moved the
// effective matrix: a rewrite that lands on a cell's current level leaves
// the array (and therefore its LU) untouched. This cache keeps the LU of
// the last prepared matrix and re-factors only after invalidate(), which
// the arrays call whenever a write changed a programmed level. Reusing the
// LU of an unchanged matrix is bit-identical to re-factoring it. The owner
// hands prepare() a builder, not a matrix, so only a re-factor assembles
// (or copies) the array, and the factor takes it over. The factor an
// invalidate() drops leaves its N² storage behind, and the next re-factor
// builds into it: a refactor allocates (and page-faults) no fresh N²
// buffer. Every factorization follows the cache's pivot plan
// (linalg/lu.hpp), which the array's owner sets when it programs the array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace memlp {

/// Observability counters of a FactorizationCache (simulator bookkeeping,
/// not hardware ops — the cost ledger carries the priced flops).
/// The cache has no patch path, so `incremental_updates` and `fallbacks`
/// always read 0; they stay because the benchmark harness fingerprints all
/// five counters.
struct FactorCacheStats {
  std::uint64_t full_factorizations = 0;  ///< fresh LU of the full matrix.
  std::uint64_t incremental_updates = 0;  ///< always 0 (see above).
  std::uint64_t prepare_hits = 0;         ///< prepare() with nothing changed.
  std::uint64_t fallbacks = 0;            ///< always 0 (see above).
  std::uint64_t solves = 0;

  FactorCacheStats& operator+=(const FactorCacheStats& other) noexcept {
    full_factorizations += other.full_factorizations;
    incremental_updates += other.incremental_updates;
    prepare_hits += other.prepare_hits;
    fallbacks += other.fallbacks;
    solves += other.solves;
    return *this;
  }

  /// Counter-wise difference (for phase snapshots).
  [[nodiscard]] FactorCacheStats since(
      const FactorCacheStats& earlier) const noexcept {
    FactorCacheStats d;
    d.full_factorizations = full_factorizations - earlier.full_factorizations;
    d.incremental_updates = incremental_updates - earlier.incremental_updates;
    d.prepare_hits = prepare_hits - earlier.prepare_hits;
    d.fallbacks = fallbacks - earlier.fallbacks;
    d.solves = solves - earlier.solves;
    return d;
  }
};

/// A solve cache over a square matrix that changes between some solves.
/// Callers report every change with invalidate() and call prepare() before
/// each batch of solve() calls.
class FactorizationCache {
 public:
  /// Declares that the matrix changed: the next prepare() re-factors, into
  /// the storage of the factor dropped here.
  void invalidate() noexcept {
    if (lu_) storage_ = std::move(*lu_).release();
    lu_.reset();
  }

  /// Sets the pivot plan every later factorization follows (empty = dense
  /// partial pivoting) and drops the cached factor and its storage.
  void set_plan(PivotPlan plan) {
    plan_ = std::move(plan);
    lu_.reset();
    storage_ = Matrix();
  }

  [[nodiscard]] const PivotPlan& plan() const noexcept { return plan_; }

  /// Ensures a factorization of the current `dim` × `dim` matrix is
  /// available: re-uses the cached one when nothing was invalidated since
  /// the last prepare() and the size is the same, else calls
  /// `build(Matrix& a)` to write the matrix into `a` and factors it in
  /// place. `a` is the storage of the factor the last invalidate() dropped
  /// when that was `dim` × `dim`, else empty (the builder sizes it). A hit
  /// builds and copies nothing. Returns false when the matrix is singular.
  // memlint:hot — per-iteration settle (re)factorization entry.
  template <class Build>
  bool prepare(std::size_t dim, Build&& build) {
    if (!reuse(dim)) {
      Matrix a = take_storage(dim);
      std::forward<Build>(build)(a);
      factor(std::move(a));
    }
    return !lu_->singular();
  }

  /// True when prepare() succeeded and no change was reported since.
  [[nodiscard]] bool ready() const noexcept {
    return lu_.has_value() && !lu_->singular();
  }

  /// Solves A x = b against the matrix of the last successful prepare().
  [[nodiscard]] Vec solve(std::span<const double> b);

  [[nodiscard]] const FactorCacheStats& stats() const noexcept {
    return stats_;
  }

  /// The factorization of the last prepare() (nullptr before any, or after
  /// a reported change).
  [[nodiscard]] const LuFactorization* factorization() const noexcept {
    return lu_.has_value() ? &*lu_ : nullptr;
  }

 private:
  /// The hit test of prepare(): true, and counted, when the cached factor
  /// is of a `dim` × `dim` matrix and nothing was invalidated since.
  bool reuse(std::size_t dim) noexcept;
  /// The miss path of prepare(): the kept storage when it is `dim` × `dim`
  /// (else an empty matrix), leaving none kept.
  Matrix take_storage(std::size_t dim) noexcept;
  /// The miss path of prepare(): factors `a` with the plan.
  void factor(Matrix a);

  FactorCacheStats stats_;
  PivotPlan plan_;
  std::optional<LuFactorization> lu_;  ///< LU of the last prepared matrix.
  /// The N² storage of the factor the last invalidate() dropped; empty
  /// while a factor is cached, so the cache holds one N² buffer at most.
  Matrix storage_;
};

}  // namespace memlp
