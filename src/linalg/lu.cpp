#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/par.hpp"
#include "linalg/ops.hpp"
#include "obs/cost_ledger.hpp"

namespace memlp {
namespace {

/// Charges one triangular solve pair (forward + back substitution,
/// ~2·n² flops over the factor's n² stored entries).
void charge_triangular_solve(std::size_t n) {
  const auto dim = static_cast<std::uint64_t>(n);
  obs::CostLedger::charge_active(
      {.flops = 2 * dim * dim, .bytes = 8 * (dim * dim + 2 * dim)});
}

// A pivot below this (relative to the matrix scale) is treated as zero.
constexpr double kPivotTolerance = 1e-13;

// Trailing-block update goes parallel only when at least this many rows lie
// below the panel; smaller trailing blocks are not worth the region setup.
constexpr std::size_t kParallelEliminationCutoff = 96;

// Pivot columns factored per panel before the deferred trailing update.
constexpr std::size_t kLuPanelWidth = 32;

}  // namespace

// memlint:hot — blocked LU factorization kernel.
LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  if (!lu_.square()) throw DimensionError("LU requires a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);  // memlint:allow(R9): pivot storage sized once per factorization
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  // Elimination flops (1 division + 2 flops per trailing element per row),
  // accumulated closed-form per pivot and charged once — outside the
  // parallel elimination region, so the attribution is deterministic.
  std::uint64_t flops = 0;
  const auto dim = static_cast<std::uint64_t>(n);
  const auto charge_factorization = [&] {
    obs::CostLedger::charge_active({.flops = flops, .bytes = 8 * dim * dim});
  };

  const double scale = std::max(lu_.max_abs(), 1.0);
  // Panel-blocked right-looking elimination. Each element receives its
  // rank-1 updates in increasing pivot order, pivot columns are searched on
  // fully-updated values, and swaps exchange whole rows — exactly the
  // unblocked algorithm's arithmetic, so the factor is bitwise identical to
  // it; only the trailing updates are deferred and batched per panel (one
  // streaming pass over the trailing block instead of one per pivot).
  for (std::size_t p0 = 0; p0 < n; p0 += kLuPanelWidth) {
    const std::size_t p1 = std::min(p0 + kLuPanelWidth, n);
    // Panel factorization: pivots [p0, p1), eagerly updating only the panel
    // columns (so pivot searches and multipliers see final values).
    for (std::size_t k = p0; k < p1; ++k) {
      // Partial pivoting: largest |value| in column k at/below row k.
      std::size_t pivot_row = k;
      double pivot_mag = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mag = std::abs(lu_(i, k));
        if (mag > pivot_mag) {
          pivot_mag = mag;
          pivot_row = i;
        }
      }
      if (pivot_mag <= kPivotTolerance * scale) {
        singular_ = true;
        charge_factorization();
        return;
      }
      if (pivot_row != k) {
        std::swap_ranges(lu_.row(k).begin(), lu_.row(k).end(),
                         lu_.row(pivot_row).begin());
        std::swap(perm_[k], perm_[pivot_row]);
        perm_sign_ = -perm_sign_;
      }
      const double inv_pivot = 1.0 / lu_(k, k);
      const std::size_t remaining = n - (k + 1);
      const auto rem = static_cast<std::uint64_t>(remaining);
      flops += rem * (1 + 2 * rem);
      const auto krow = lu_.row(k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double lik = lu_(i, k) * inv_pivot;
        lu_(i, k) = lik;
        if (lik == 0.0) continue;
        auto irow = lu_.row(i);
        for (std::size_t j = k + 1; j < p1; ++j) irow[j] -= lik * krow[j];
      }
    }
    if (p1 == n) break;
    // Complete the panel's U rows right of the panel: row k needs the
    // updates of pivots [p0, k), applied in increasing pivot order — by the
    // time row k serves as the pivot row below, its trailing part is final.
    for (std::size_t k = p0; k < p1; ++k) {
      const auto krow = lu_.row(k);
      for (std::size_t i = k + 1; i < p1; ++i) {
        const double lik = lu_(i, k);
        if (lik == 0.0) continue;
        auto irow = lu_.row(i);
        for (std::size_t j = p1; j < n; ++j) irow[j] -= lik * krow[j];
      }
    }
    // Deferred trailing update: each row below the panel absorbs all panel
    // pivots in order. Rows update independently (each task touches only its
    // own rows), and the per-row arithmetic is identical at any thread count.
    const std::size_t trailing = n - p1;
    const auto update_row = [&](std::size_t i) {
      auto irow = lu_.row(i);
      for (std::size_t k = p0; k < p1; ++k) {
        const double lik = irow[k];
        if (lik == 0.0) continue;
        const auto krow = lu_.row(k);
        for (std::size_t j = p1; j < n; ++j) irow[j] -= lik * krow[j];
      }
    };
    if (trailing >= kParallelEliminationCutoff) {
      par::parallel_for_ranges(
          trailing, std::max<std::size_t>(std::size_t{8}, trailing / 32),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) update_row(p1 + r);
          });
    } else {
      for (std::size_t i = p1; i < n; ++i) update_row(i);
    }
  }
  charge_factorization();
}

// memlint:hot — triangular-solve kernel.
Vec LuFactorization::solve(std::span<const double> b) const {
  MEMLP_EXPECT_MSG(!singular_, "solve() on a singular factorization");
  MEMLP_EXPECT(b.size() == lu_.rows());
  const std::size_t n = lu_.rows();
  charge_triangular_solve(n);
  Vec x(n);  // memlint:allow(R9): result buffer; the caller owns the returned vector
  // Forward substitution with permuted b: L y = P b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[perm_[i]];
    const auto row = lu_.row(i);
    for (std::size_t j = 0; j < i; ++j) sum -= row[j] * x[j];
    x[i] = sum;
  }
  // Back substitution: U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    const auto row = lu_.row(ii);
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= row[j] * x[j];
    x[ii] = sum / row[ii];
  }
  return x;
}

// memlint:hot — transposed triangular-solve kernel.
Vec LuFactorization::solve_transposed(std::span<const double> b) const {
  MEMLP_EXPECT_MSG(!singular_, "solve_transposed() on singular factorization");
  MEMLP_EXPECT(b.size() == lu_.rows());
  const std::size_t n = lu_.rows();
  charge_triangular_solve(n);
  // Solve U^T y = b (forward), then L^T z = y (backward), then x = P^T z.
  Vec y(n);  // memlint:allow(R9): stage buffer; reuse is ROADMAP scale-up work
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= lu_(k, i) * y[k];
    y[i] = sum / lu_(i, i);
  }
  Vec z(n);  // memlint:allow(R9): stage buffer; reuse is ROADMAP scale-up work
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= lu_(k, ii) * z[k];
    z[ii] = sum;
  }
  Vec x(n);  // memlint:allow(R9): result buffer; the caller owns the returned vector
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = z[i];
  return x;
}

double LuFactorization::determinant() const noexcept {
  if (singular_) return 0.0;
  double det = static_cast<double>(perm_sign_);
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

double LuFactorization::log_abs_determinant() const noexcept {
  if (singular_) return -std::numeric_limits<double>::infinity();
  double log_det = 0.0;
  for (std::size_t i = 0; i < lu_.rows(); ++i)
    log_det += std::log(std::abs(lu_(i, i)));
  return log_det;
}

std::optional<double> LuFactorization::inverse_norm_estimate() const {
  if (singular_) return std::nullopt;
  const std::size_t n = lu_.rows();
  if (n == 0) return 1.0;
  // Hager / Higham 1-norm estimator for ||A^{-1}||_1 using a few solves.
  Vec v(n, 1.0 / static_cast<double>(n));
  double estimate = 0.0;
  for (int iteration = 0; iteration < 5; ++iteration) {
    const Vec y = solve(v);
    double norm1 = 0.0;
    for (double value : y) norm1 += std::abs(value);
    estimate = std::max(estimate, norm1);
    Vec sign(n);
    for (std::size_t i = 0; i < n; ++i) sign[i] = y[i] >= 0.0 ? 1.0 : -1.0;
    const Vec z = solve_transposed(sign);
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (std::abs(z[i]) > std::abs(z[best])) best = i;
    if (std::abs(z[best]) <= dot(z, v)) break;
    std::fill(v.begin(), v.end(), 0.0);
    v[best] = 1.0;
  }
  // ||A||_1 is the max column sum = inf-norm of the transpose; recompute from
  // the stored LU is not possible, so callers wanting a true kappa should
  // multiply by their own ||A||_1. We fold in nothing and document this as an
  // *inverse-norm* based scale: kappa_est = ||A||_1 * ||A^{-1}||_1.
  return estimate;
}

Vec lu_solve(const Matrix& a, std::span<const double> b) {
  const LuFactorization lu(a);
  if (lu.singular()) throw NumericalError("lu_solve: singular matrix");
  return lu.solve(b);
}

}  // namespace memlp
