#include "linalg/factor_cache.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "obs/flight_recorder.hpp"

namespace memlp {

bool FactorizationCache::reuse(std::size_t dim) noexcept {
  if (!lu_ || lu_->size() != dim) return false;
  ++stats_.prepare_hits;
  return true;
}

void FactorizationCache::factor(Matrix a) {
  MEMLP_EXPECT_MSG(a.square(), "FactorizationCache: matrix must be square");
  lu_.emplace(std::move(a), plan_);  // charges its own flops
  ++stats_.full_factorizations;
  obs::flight_record(obs::FlightEventKind::kCacheRefresh, "settle_cache",
                     static_cast<double>(stats_.full_factorizations));
}

// memlint:hot — per-iteration Newton back-substitution entry.
Vec FactorizationCache::solve(std::span<const double> b) {
  MEMLP_EXPECT_MSG(ready(), "FactorizationCache::solve before prepare()");
  MEMLP_EXPECT(b.size() == lu_->size());
  ++stats_.solves;
  return lu_->solve(b);
}

}  // namespace memlp
