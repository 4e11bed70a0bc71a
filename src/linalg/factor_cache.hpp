// Factorization reuse across re-solves of an unchanged matrix.
//
// The crossbar PDIP loop re-solves M·∆s = r every iteration, but a settle
// only needs a fresh factorization when a write actually moved the
// effective matrix: a rewrite that lands on a cell's current level leaves
// the array (and therefore its LU) untouched. This cache keeps the LU of
// the last prepared matrix and re-factors only after invalidate(), which
// the arrays call whenever a write changed a programmed level. Reusing the
// LU of an unchanged matrix is bit-identical to re-factoring it.
#pragma once

#include <cstdint>
#include <optional>

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
  /// Declares that the matrix changed (or was replaced wholesale): the next
  /// prepare() re-factors.
  void invalidate() noexcept { lu_.reset(); }

  /// Ensures a factorization of `a` is available: re-uses the cached one
  /// when nothing was invalidated since the last prepare() and the shape is
  /// the same, else factors `a` afresh. Returns false when `a` is singular.
  bool prepare(const Matrix& a);

  /// True when prepare() succeeded and no change was reported since.
  [[nodiscard]] bool ready() const noexcept {
    return lu_.has_value() && !lu_->singular();
  }

  /// Solves A x = b against the matrix of the last successful prepare().
  [[nodiscard]] Vec solve(std::span<const double> b);

  [[nodiscard]] const FactorCacheStats& stats() const noexcept {
    return stats_;
  }

 private:
  FactorCacheStats stats_;
  std::optional<LuFactorization> lu_;  ///< LU of the last prepared matrix.
};

}  // namespace memlp
