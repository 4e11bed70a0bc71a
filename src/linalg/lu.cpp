#include "linalg/lu.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

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

// Pivot rows applied per pass over a row being updated.
constexpr std::size_t kFusedPivots = 4;

// Nonzero runs recorded per pivot row, and the longest zero gap kept inside
// a run.
constexpr std::size_t kMaxRuns = 8;
constexpr std::size_t kRunGap = 16;

// Two doubles: the baseline SSE2 register. A GCC/Clang vector extension,
// lowered on every target without an ISA flag.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

Pair load_pair(const double* p) noexcept {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) noexcept { std::memcpy(p, &v, sizeof v); }

/// Columns [lo, hi) of a row outside which it holds only zeros.
struct Span {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// The nonzero span of row[begin, end) (empty when all zero).
Span nonzero_span(const double* row, std::size_t begin, std::size_t end) {
  while (begin < end && row[begin] == 0.0) ++begin;
  while (end > begin && row[end - 1] == 0.0) --end;
  return {begin, end};
}

/// A row's nonzeros right of a panel as a few runs, ascending. Zero gaps
/// shorter than kRunGap stay inside a run (sweeping them is cheaper than
/// splitting a pass); the last of kMaxRuns runs absorbs all further
/// nonzeros.
struct Runs {
  std::array<Span, kMaxRuns> span{};
  std::size_t count = 0;
};

Runs nonzero_runs(const double* row, std::size_t begin, std::size_t end) {
  Runs runs;
  for (std::size_t j = begin; j < end; ++j) {
    if (row[j] == 0.0) continue;
    Span* last = runs.count > 0 ? &runs.span[runs.count - 1] : nullptr;
    if (last != nullptr && (j - last->hi < kRunGap || runs.count == kMaxRuns))
      last->hi = j + 1;
    else
      runs.span[runs.count++] = {j, j + 1};
  }
  return runs;
}

/// acc − l·u with the product rounded on its own: two statements, so no
/// compiler contracts them into an FMA.
template <typename T>
T minus_product(T acc, T l, T u) noexcept {
  const T prod = l * u;
  return acc - prod;
}

/// v[j] -= l[0]·u[0][j]; … ; v[j] -= l[P-1]·u[P-1][j] for j in `cols`,
/// P = sizeof...(Q): each element takes the P pivots in order, every
/// product and difference rounded on its own — the unblocked loop's exact
/// operation sequence, with v[j] held in a register across the P pivots
/// instead of stored and reloaded per pivot. Always inlined, so the panel's
/// short single-pivot sweeps pay no call.
template <std::size_t... Q>
[[gnu::always_inline]] inline void subtract_pivots(
    double* v, const double* const* u, const double* l, Span cols,
    std::index_sequence<Q...> /*pivots*/) noexcept {
  const std::array<const double*, sizeof...(Q)> rows{u[Q]...};
  const std::array<double, sizeof...(Q)> mult{l[Q]...};
  const std::array<Pair, sizeof...(Q)> mult2{Pair{l[Q], l[Q]}...};
  const auto pair_at = [&](std::size_t j) {
    Pair acc = load_pair(v + j);
    ((acc = minus_product(acc, mult2[Q], load_pair(rows[Q] + j))), ...);
    store_pair(v + j, acc);
  };
  std::size_t j = cols.lo;
  for (; j + 4 <= cols.hi; j += 4) {  // two pairs per trip
    pair_at(j);
    pair_at(j + 2);
  }
  if (j + 2 <= cols.hi) {
    pair_at(j);
    j += 2;
  }
  if (j < cols.hi) {
    double acc = v[j];
    ((acc = minus_product(acc, mult[Q], rows[Q][j])), ...);
    v[j] = acc;
  }
}

template <std::size_t P>
void subtract_pivots_n(double* v, const double* const* u, const double* l,
                       Span cols) noexcept {
  subtract_pivots(v, u, l, cols, std::make_index_sequence<P>{});
}

// subtract_pivots over P pivots at index P - 1.
constexpr std::array kSubtractPivots{
    &subtract_pivots_n<1>, &subtract_pivots_n<2>, &subtract_pivots_n<3>,
    &subtract_pivots_n<4>};
static_assert(kSubtractPivots.size() == kFusedPivots);

/// One panel's finished pivot rows, for updating the rows after them:
/// pivot row p0 + q is u[q], nonzero right of the panel only on runs[q].
struct PanelRows {
  std::size_t p0 = 0;
  std::array<const double*, kLuPanelWidth> u{};
  std::array<Runs, kLuPanelWidth> runs{};

  /// Applies pivots [p0, k_end) to `row` right of the panel in increasing
  /// pivot order, kFusedPivots at a time. A pivot is skipped where its
  /// multiplier row[k] is zero or its row is zero right of the panel, and a
  /// pass sweeps only the union of its pivots' runs. Every skipped
  /// operation subtracts an exact ±0 (|multiplier| ≤ 1 under partial
  /// pivoting), which leaves each nonzero element bit-identical.
  void apply(double* row, std::size_t k_end) const noexcept {
    std::array<std::size_t, kFusedPivots> group{};
    std::size_t count = 0;
    for (std::size_t q = 0; p0 + q < k_end; ++q) {
      if (row[p0 + q] == 0.0 || runs[q].count == 0) continue;
      group[count++] = q;
      if (count == kFusedPivots) {
        pass(row, group, count);
        count = 0;
      }
    }
    if (count > 0) pass(row, group, count);
  }

 private:
  /// One fused pass of the pivots group[0, count) over their runs' union.
  void pass(double* row, const std::array<std::size_t, kFusedPivots>& group,
            std::size_t count) const noexcept {
    std::array<const double*, kFusedPivots> pu{};
    std::array<double, kFusedPivots> pl{};
    std::array<Span, kFusedPivots * kMaxRuns> pieces{};
    std::size_t pieces_count = 0;
    for (std::size_t g = 0; g < count; ++g) {
      const std::size_t q = group[g];
      pu[g] = u[q];
      pl[g] = row[p0 + q];
      std::copy_n(runs[q].span.begin(), runs[q].count,
                  pieces.begin() + static_cast<std::ptrdiff_t>(pieces_count));
      pieces_count += runs[q].count;
    }
    std::sort(pieces.begin(),
              pieces.begin() + static_cast<std::ptrdiff_t>(pieces_count),
              [](Span x, Span y) { return x.lo < y.lo; });
    const auto sweep = [&](Span cols) {
      kSubtractPivots[count - 1](row, pu.data(), pl.data(), cols);
    };
    Span cover = pieces[0];
    for (std::size_t i = 1; i < pieces_count; ++i) {
      if (pieces[i].lo <= cover.hi + kRunGap) {
        cover.hi = std::max(cover.hi, pieces[i].hi);
      } else {
        sweep(cover);
        cover = pieces[i];
      }
    }
    sweep(cover);
  }
};

}  // namespace

// memlint:hot — blocked LU factorization kernel.
LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  if (!lu_.square()) throw DimensionError("LU requires a square matrix");
  const std::size_t n = lu_.rows();
  rows_.resize(n);  // memlint:allow(R9): per-row storage sized once per factorization
  for (std::size_t i = 0; i < n; ++i) rows_[i].source = i;

  // Elimination flops (1 division + 2 flops per trailing element per row),
  // accumulated closed-form per pivot and charged once — outside the
  // parallel elimination region, so the attribution is deterministic. The
  // count is the dense one: skipping structural zeros does not change it.
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
    // Partial pivoting takes the first largest |value| in column k at/below
    // row k; column p0 is searched here, each later one during the previous
    // column's elimination pass, right after each row's last update to it.
    std::size_t pivot_row = p0;
    double pivot_mag = std::abs(lu_(p0, p0));
    for (std::size_t i = p0 + 1; i < n; ++i) {
      const double mag = std::abs(lu_(i, p0));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    for (std::size_t k = p0; k < p1; ++k) {
      if (pivot_mag <= kPivotTolerance * scale) {
        singular_ = true;
        charge_factorization();
        return;
      }
      if (pivot_row != k) {
        std::swap_ranges(lu_.row(k).begin(), lu_.row(k).end(),
                         lu_.row(pivot_row).begin());
        std::swap(rows_[k].source, rows_[pivot_row].source);
        perm_sign_ = -perm_sign_;
      }
      const double inv_pivot = 1.0 / lu_(k, k);
      const std::size_t remaining = n - (k + 1);
      const auto rem = static_cast<std::uint64_t>(remaining);
      flops += rem * (1 + 2 * rem);
      const double* krow = lu_.row(k).data();
      const Span in_panel = nonzero_span(krow, k + 1, p1);
      const bool search_next = k + 1 < p1;
      for (std::size_t i = k + 1; i < n; ++i) {
        double* irow = lu_.row(i).data();
        const double lik = irow[k] * inv_pivot;
        irow[k] = lik;
        if (lik != 0.0)
          subtract_pivots(irow, &krow, &lik, in_panel,
                          std::make_index_sequence<1>{});
        if (search_next) {
          const double mag = std::abs(irow[k + 1]);
          if (i == k + 1 || mag > pivot_mag) {
            pivot_mag = mag;
            pivot_row = i;
          }
        }
      }
    }
    if (p1 == n) break;
    // Complete the panel's U rows right of the panel: row k takes the
    // updates of pivots [p0, k) in increasing order, after which its part
    // right of the panel is final and its nonzero runs are recorded.
    PanelRows panel;
    panel.p0 = p0;
    for (std::size_t k = p0; k < p1; ++k) {
      double* krow = lu_.row(k).data();
      panel.apply(krow, k);
      panel.u[k - p0] = krow;
      panel.runs[k - p0] = nonzero_runs(krow, p1, n);
    }
    // Deferred trailing update: each row below the panel absorbs all panel
    // pivots in order. Rows update independently (each task touches only its
    // own rows), and the per-row arithmetic is identical at any thread count.
    const std::size_t trailing = n - p1;
    const auto update_rows = [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r)
        panel.apply(lu_.row(p1 + r).data(), p1);
    };
    if (trailing >= kParallelEliminationCutoff) {
      par::parallel_for_ranges(
          trailing, std::max<std::size_t>(std::size_t{8}, trailing / 32),
          update_rows);
    } else {
      update_rows(0, trailing);
    }
  }
  // Each row's nonzero extent in L (left of the diagonal) and U (right of
  // it), so the substitutions skip the structural zeros.
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = lu_.row(i).data();
    std::size_t l_begin = 0;
    while (l_begin < i && row[l_begin] == 0.0) ++l_begin;
    std::size_t u_end = n;
    while (u_end > i + 1 && row[u_end - 1] == 0.0) --u_end;
    rows_[i].l_begin = l_begin;
    rows_[i].u_end = u_end;
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
  // Forward substitution with permuted b: L y = P b. Each row runs over its
  // nonzero span only; a skipped term is sum − (±0).
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[rows_[i].source];
    const auto row = lu_.row(i);
    for (std::size_t j = rows_[i].l_begin; j < i; ++j) sum -= row[j] * x[j];
    x[i] = sum;
  }
  // Back substitution: U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    const auto row = lu_.row(ii);
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < rows_[ii].u_end; ++j)
      sum -= row[j] * x[j];
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
  for (std::size_t i = 0; i < n; ++i) x[rows_[i].source] = z[i];
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
