#include "linalg/factor_cache.hpp"

#include "common/contracts.hpp"
#include "obs/flight_recorder.hpp"

namespace memlp {

// memlint:hot — per-iteration KKT (re)factorization entry.
bool FactorizationCache::prepare(const Matrix& a) {
  MEMLP_EXPECT_MSG(a.square(), "FactorizationCache: matrix must be square");
  if (lu_ && lu_->size() == a.rows()) {
    ++stats_.prepare_hits;
    return !lu_->singular();
  }
  lu_.emplace(a, plan_);  // charges its own flops  // memlint:allow(R9): full refactor is the amortized slow path the cache exists to avoid
  ++stats_.full_factorizations;
  obs::flight_record(obs::FlightEventKind::kCacheRefresh, "settle_cache",
                     static_cast<double>(stats_.full_factorizations));
  return !lu_->singular();
}

// memlint:hot — per-iteration Newton back-substitution entry.
Vec FactorizationCache::solve(std::span<const double> b) {
  MEMLP_EXPECT_MSG(ready(), "FactorizationCache::solve before prepare()");
  MEMLP_EXPECT(b.size() == lu_->size());
  ++stats_.solves;
  return lu_->solve(b);
}

}  // namespace memlp
