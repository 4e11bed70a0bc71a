#include "linalg/lu.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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

using Span = LuFactorization::Span;

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

  /// Adds nonzero column j, right of every column added before.
  void add(std::size_t j) noexcept {
    Span* last = count > 0 ? &span[count - 1] : nullptr;
    if (last != nullptr && (j - last->hi < kRunGap || count == kMaxRuns))
      last->hi = j + 1;
    else
      span[count++] = {j, j + 1};
  }
};

Runs nonzero_runs(const double* row, std::size_t begin, std::size_t end) {
  Runs runs;
  for (std::size_t j = begin; j < end; ++j)
    if (row[j] != 0.0) runs.add(j);
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

/// Row sets as bitsets of 64-row words: one per column (a superset of the
/// column's nonzero rows), the rows and columns not yet eliminated, the
/// rows one pivot updates.
constexpr std::size_t kWordBits = 64;

std::size_t bit_words(std::size_t n) { return (n + kWordBits - 1) / kWordBits; }

bool test_bit(const std::uint64_t* bits, std::size_t i) noexcept {
  return ((bits[i / kWordBits] >> (i % kWordBits)) & 1U) != 0;
}

void set_bit(std::uint64_t* bits, std::size_t i) noexcept {
  bits[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

void clear_bit(std::uint64_t* bits, std::size_t i) noexcept {
  bits[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

/// Calls f(i) for every set bit i of `word`, the w-th word, ascending.
template <typename F>
void for_each_bit(std::uint64_t word, std::size_t w, F&& f) {
  while (word != 0) {
    f(w * kWordBits + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

}  // namespace

// memlint:hot — LU factorization entry (dense block or planned).
LuFactorization::LuFactorization(Matrix a, std::span<const PlannedPivot> plan)
    : lu_(std::move(a)) {
  if (!lu_.square()) throw DimensionError("LU requires a square matrix");
  const std::size_t n = lu_.rows();
  rows_.resize(n);  // memlint:allow(R9): per-row storage sized once per factorization
  for (std::size_t i = 0; i < n; ++i) rows_[i].source = rows_[i].column = i;
  const double scale =
      plan.empty() ? std::max(lu_.max_abs(), 1.0) : factor_planned(plan);
  if (static_count_ == 0)
    singular_ = factor_block(lu_, rows_, scale, perm_sign_);
}

// memlint:hot — blocked LU factorization kernel.
bool LuFactorization::factor_block(Matrix& a, std::span<Row> rows,
                                   double scale, int& perm_sign) {
  const std::size_t n = a.rows();
  // Elimination flops (1 division + 2 flops per trailing element per row),
  // accumulated closed-form per pivot and charged once — outside the
  // parallel elimination region, so the attribution is deterministic. The
  // count is the dense one: skipping structural zeros does not change it.
  std::uint64_t flops = 0;
  const auto dim = static_cast<std::uint64_t>(n);
  const auto charge_factorization = [&] {
    obs::CostLedger::charge_active({.flops = flops, .bytes = 8 * dim * dim});
  };

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
    double pivot_mag = std::abs(a(p0, p0));
    for (std::size_t i = p0 + 1; i < n; ++i) {
      const double mag = std::abs(a(i, p0));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    for (std::size_t k = p0; k < p1; ++k) {
      if (pivot_mag <= kPivotTolerance * scale) {
        charge_factorization();
        return true;
      }
      if (pivot_row != k) {
        std::swap_ranges(a.row(k).begin(), a.row(k).end(),
                         a.row(pivot_row).begin());
        std::swap(rows[k].source, rows[pivot_row].source);
        perm_sign = -perm_sign;
      }
      const double inv_pivot = 1.0 / a(k, k);
      const std::size_t remaining = n - (k + 1);
      const auto rem = static_cast<std::uint64_t>(remaining);
      flops += rem * (1 + 2 * rem);
      const double* krow = a.row(k).data();
      const Span in_panel = nonzero_span(krow, k + 1, p1);
      const bool search_next = k + 1 < p1;
      for (std::size_t i = k + 1; i < n; ++i) {
        double* irow = a.row(i).data();
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
      double* krow = a.row(k).data();
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
        panel.apply(a.row(p1 + r).data(), p1);
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
    const double* row = a.row(i).data();
    std::size_t l_begin = 0;
    while (l_begin < i && row[l_begin] == 0.0) ++l_begin;
    std::size_t u_end = n;
    while (u_end > i + 1 && row[u_end - 1] == 0.0) --u_end;
    rows[i].l_begin = l_begin;
    rows[i].u_end = u_end;
  }
  charge_factorization();
  return false;
}

// memlint:hot — static elimination phase and front of a planned factor.
double LuFactorization::factor_planned(std::span<const PlannedPivot> plan) {
  const std::size_t n = lu_.rows();
  const std::size_t words = bit_words(n);
  constexpr std::size_t kRunsWords = 1 + 2 * kMaxRuns;
  // Scratch: each column's row bitset, the live rows and columns, the rows
  // the current pivot updates, the pivot row's entries set aside (column,
  // value bits), and each row's tracked runs.
  std::vector<std::uint64_t> work(  // memlint:allow(R9): scratch sized once per planned factorization
      n * words + 3 * words + 2 * n + n * kRunsWords, 0);
  std::uint64_t* col_rows = work.data();
  std::uint64_t* live_rows = col_rows + n * words;
  std::uint64_t* live_cols = live_rows + words;
  std::uint64_t* hit = live_cols + words;
  std::uint64_t* set_aside = hit + words;
  std::uint64_t* runs_words = set_aside + 2 * n;
  // Each row's tracked runs, [count, lo, hi, lo, hi, ...]: Runs covering
  // its nonzeros. A row an elimination updates collapses to one run; the
  // rows with few, scattered nonzeros (the two-entry rows) are the ones
  // never updated.
  const auto tracked = [&](std::size_t i) {
    const std::uint64_t* words_of = runs_words + i * kRunsWords;
    Runs runs;
    runs.count = words_of[0];
    for (std::size_t q = 0; q < runs.count; ++q)
      runs.span[q] = {words_of[1 + 2 * q], words_of[2 + 2 * q]};
    return runs;
  };
  const auto set_tracked = [&](std::size_t i, const Runs& runs) {
    std::uint64_t* words_of = runs_words + i * kRunsWords;
    words_of[0] = runs.count;
    for (std::size_t q = 0; q < runs.count; ++q) {
      words_of[1 + 2 * q] = runs.span[q].lo;
      words_of[2 + 2 * q] = runs.span[q].hi;
    }
  };
  // One pass over A: the column bitsets, the tracked runs and the scale. A
  // block of kScanBlock entries is skipped when all its bits but the signs
  // are zero.
  constexpr std::size_t kScanBlock = 8;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    set_bit(live_rows, i);
    set_bit(live_cols, i);
    const double* row = lu_.row(i).data();
    Runs runs;
    for (std::size_t j0 = 0; j0 < n; j0 += kScanBlock) {
      const std::size_t j1 = std::min(j0 + kScanBlock, n);
      std::uint64_t any = 0;
      for (std::size_t j = j0; j < j1; ++j)
        any |= std::bit_cast<std::uint64_t>(row[j]) << 1;
      if (any == 0) continue;
      for (std::size_t j = j0; j < j1; ++j) {
        if (row[j] == 0.0) continue;
        set_bit(col_rows + j * words, i);
        max_abs = std::max(max_abs, std::abs(row[j]));
        runs.add(j);
      }
    }
    set_tracked(i, runs);
  }
  const double scale = std::max(max_abs, 1.0);
  // Adds column j to the run list that starts at runs_[begin], ascending:
  // it extends the last run when less than `gap` columns lie between.
  const auto add_run = [&](std::size_t begin, std::size_t j,
                           std::size_t gap) {
    if (runs_.size() > begin && j - runs_.back().hi < gap)
      runs_.back().hi = j + 1;
    else
      runs_.push_back({j, j + 1});  // memlint:allow(R9): O(nnz) run list grown once per planned factorization
  };

  std::uint64_t updates = 0;
  std::uint64_t multipliers = 0;
  for (const PlannedPivot& entry : plan) {
    const std::size_t r = entry.row;
    MEMLP_EXPECT_MSG(r < n && test_bit(live_rows, r),
                     "pivot plan: row " << r << " out of range or repeated");
    double* rrow = lu_.row(r).data();
    // The larger-entry rule over the live candidate columns.
    std::size_t c = PlannedPivot::kNoColumn;
    for (const std::size_t candidate : {entry.column, entry.alternative}) {
      if (candidate == PlannedPivot::kNoColumn) continue;
      MEMLP_EXPECT(candidate < n);
      if (!test_bit(live_cols, candidate)) continue;
      if (c == PlannedPivot::kNoColumn ||
          std::abs(rrow[candidate]) > std::abs(rrow[c]))
        c = candidate;
    }
    if (c == PlannedPivot::kNoColumn) {
      ++deferred_;
      continue;
    }
    // The threshold rule, against column c's largest live |entry|.
    const std::uint64_t* col = col_rows + c * words;
    double column_max = 0.0;
    for (std::size_t w = 0; w < words; ++w)
      for_each_bit(col[w] & live_rows[w], w, [&](std::size_t i) {
        column_max = std::max(column_max, std::abs(lu_(i, c)));
      });
    const double magnitude = std::abs(rrow[c]);
    if (magnitude <= kPivotTolerance * scale ||
        magnitude < kStaticPivotThreshold * column_max) {
      ++deferred_;
      continue;
    }
    clear_bit(live_rows, r);
    clear_bit(live_cols, c);
    Row& factor_row = rows_[static_count_++];
    factor_row.source = r;
    factor_row.column = c;

    // Multipliers of the live rows with a nonzero in column c; they replace
    // those entries, as in the dense kernel. `hit` keeps the rows whose
    // multiplier is nonzero, on words [hit_lo, hit_hi).
    const double inv_pivot = 1.0 / rrow[c];
    std::size_t hit_lo = words;
    std::size_t hit_hi = 0;
    std::uint64_t hit_count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t keep = 0;
      for_each_bit(col[w] & live_rows[w], w, [&](std::size_t i) {
        double* irow = lu_.row(i).data();
        const double lic = irow[c] * inv_pivot;
        irow[c] = lic;
        if (lic == 0.0) return;
        keep |= std::uint64_t{1} << (i % kWordBits);
        ++hit_count;
      });
      hit[w] = keep;
      if (keep != 0) {
        hit_lo = std::min(hit_lo, w);
        hit_hi = w + 1;
      }
    }
    multipliers += hit_count;

    // One pass over the pivot row, which is final. Its entries off the
    // live columns (its L part and the pivot) are set aside as zeros,
    // which leaves its U part to sweep over every hit row (a zero inside a
    // run subtracts ±0 and changes no nonzero). Each U column gains the
    // hit rows, each hit row's tracked runs the swept extent. For the
    // solve, runs_ gets the U part's runs (cut where an entry was set
    // aside), then the L part's.
    const Runs regions = tracked(r);
    Runs upper;
    std::size_t aside = 0;
    std::uint64_t u_count = 0;
    std::size_t gap = 0;  // kRunGap, or 0 right after a set-aside entry
    factor_row.runs_begin = runs_.size();
    for (std::size_t q = 0; q < regions.count; ++q) {
      for (std::size_t j = regions.span[q].lo; j < regions.span[q].hi; ++j) {
        if (rrow[j] == 0.0) continue;
        if (!test_bit(live_cols, j)) {
          set_aside[2 * aside] = j;
          set_aside[2 * aside + 1] = std::bit_cast<std::uint64_t>(rrow[j]);
          ++aside;
          rrow[j] = 0.0;
          gap = 0;
          continue;
        }
        ++u_count;
        std::uint64_t* fill = col_rows + j * words;
        for (std::size_t w = hit_lo; w < hit_hi; ++w) fill[w] |= hit[w];
        upper.add(j);
        add_run(factor_row.runs_begin, j, gap);
        gap = kRunGap;
      }
    }
    factor_row.lower_begin = runs_.size();
    for (std::size_t q = 0; q < aside; ++q)
      if (set_aside[2 * q] != c)
        add_run(factor_row.lower_begin, set_aside[2 * q], 1);
    factor_row.runs_end = runs_.size();
    if (u_count > 0) {
      const Span swept{upper.span[0].lo, upper.span[upper.count - 1].hi};
      for (std::size_t w = hit_lo; w < hit_hi; ++w)
        for_each_bit(hit[w], w, [&](std::size_t i) {
          double* irow = lu_.row(i).data();
          const double lic = irow[c];
          for (std::size_t q = 0; q < upper.count; ++q)
            subtract_pivots(irow, &rrow, &lic, upper.span[q],
                            std::make_index_sequence<1>{});
          const Runs own = tracked(i);
          Runs covered;
          covered.span[0] = {std::min(own.span[0].lo, swept.lo),
                             std::max(own.span[own.count - 1].hi, swept.hi)};
          covered.count = 1;
          set_tracked(i, covered);
        });
    }
    for (std::size_t q = 0; q < aside; ++q)
      rrow[set_aside[2 * q]] = std::bit_cast<double>(set_aside[2 * q + 1]);
    updates += u_count * hit_count;
  }
  obs::CostLedger::charge_active(
      {.flops = 2 * updates + multipliers, .bytes = 8 * (updates + multipliers)});
  if (static_count_ == 0) return scale;  // the dense kernel factors lu_

  // The front: the live rows × live columns, in natural order, gathered and
  // factored by the dense block kernel. Its rows carry front-local sources
  // while it is factored, rows of A after.
  const std::size_t s = static_count_;
  const std::size_t f = n - s;
  std::uint64_t* front_rows = col_rows;  // the column bitsets are done with
  std::size_t rank = 0;
  for (std::size_t w = 0; w < words; ++w)
    for_each_bit(live_rows[w], w,
                 [&](std::size_t i) { front_rows[rank++] = i; });
  rank = 0;
  for (std::size_t w = 0; w < words; ++w)
    for_each_bit(live_cols[w], w,
                 [&](std::size_t j) { rows_[s + rank++].column = j; });
  front_ = Matrix(f, f);  // memlint:allow(R9): the front, sized once per planned factorization
  for (std::size_t a = 0; a < f; ++a) {
    const double* row = lu_.row(front_rows[a]).data();
    double* out = front_.row(a).data();
    for (std::size_t b = 0; b < f; ++b) out[b] = row[rows_[s + b].column];
    rows_[s + a].source = a;
  }
  const std::span<Row> front_factor(rows_.data() + s, f);
  int front_sign = 1;
  singular_ = factor_block(front_, front_factor, scale, front_sign);
  if (singular_) return scale;
  // A front row's runs for the solve: its L part, cut at its front
  // columns' nonzeros.
  for (std::size_t a = 0; a < f; ++a) {
    Row& row = rows_[s + a];
    row.source = front_rows[row.source];
    const double* values = lu_.row(row.source).data();
    const Runs regions = tracked(row.source);
    row.runs_begin = row.lower_begin = runs_.size();
    std::size_t gap = 0;
    for (std::size_t q = 0; q < regions.count; ++q) {
      for (std::size_t j = regions.span[q].lo; j < regions.span[q].hi; ++j) {
        if (values[j] == 0.0) continue;
        if (test_bit(live_cols, j)) {
          gap = 0;
          continue;
        }
        add_run(row.lower_begin, j, gap);
        gap = kRunGap;
      }
    }
    row.runs_end = runs_.size();
  }

  // det(A) = sign(π)·Π U(k, k), π the permutation taking each row of A to
  // the column it pivots.
  std::uint64_t* position = col_rows;
  std::uint64_t* seen = live_rows;
  std::fill_n(seen, words, 0);
  for (std::size_t k = 0; k < n; ++k) position[rows_[k].source] = k;
  std::size_t cycles = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (test_bit(seen, start)) continue;
    ++cycles;
    for (std::size_t i = start; !test_bit(seen, i);
         i = rows_[position[i]].column)
      set_bit(seen, i);
  }
  perm_sign_ = (n - cycles) % 2 == 0 ? 1 : -1;
  return scale;
}

// memlint:hot — triangular-solve kernel.
Vec LuFactorization::solve(std::span<const double> b) const {
  MEMLP_EXPECT_MSG(!singular_, "solve() on a singular factorization");
  MEMLP_EXPECT(b.size() == lu_.rows());
  const std::size_t n = lu_.rows();
  Vec x(n);  // memlint:allow(R9): result buffer; the caller owns the returned vector
  if (static_count_ == 0) {
    solve_block(lu_, rows_, b, x);
    return x;
  }
  // A planned factor, solved in x by column of A. x starts at zero and a
  // column takes its forward value when its pivot is reached, its solution
  // on the way back, so each dot below reads only solved columns.
  const std::size_t s = static_count_;
  const std::size_t f = n - s;
  std::uint64_t terms = 0;
  const auto subtract = [&](double sum, const Row& row, std::size_t begin,
                            std::size_t end) {
    const double* values = lu_.row(row.source).data();
    for (std::size_t q = begin; q < end; ++q) {
      terms += runs_[q].hi - runs_[q].lo;
      for (std::size_t j = runs_[q].lo; j < runs_[q].hi; ++j)
        sum -= values[j] * x[j];
    }
    return sum;
  };
  const auto front_column = [&](std::size_t a) { return rows_[s + a].column; };
  for (std::size_t k = 0; k < s; ++k) {
    const Row& row = rows_[k];
    x[row.column] =
        subtract(b[row.source], row, row.lower_begin, row.runs_end);
  }
  // The front: its rows' L parts against the static columns, then the dense
  // substitutions, its columns reached through the rows' `column`.
  for (std::size_t a = 0; a < f; ++a) {
    const Row& row = rows_[s + a];
    double sum = subtract(b[row.source], row, row.lower_begin, row.runs_end);
    const double* lu_row = front_.row(a).data();
    for (std::size_t j = row.l_begin; j < a; ++j)
      sum -= lu_row[j] * x[front_column(j)];
    x[row.column] = sum;
  }
  for (std::size_t a = f; a-- > 0;) {
    const Row& row = rows_[s + a];
    const double* lu_row = front_.row(a).data();
    double sum = x[row.column];
    for (std::size_t j = a + 1; j < row.u_end; ++j)
      sum -= lu_row[j] * x[front_column(j)];
    x[row.column] = sum / lu_row[a];
  }
  for (std::size_t k = s; k-- > 0;) {
    const Row& row = rows_[k];
    x[row.column] =
        subtract(x[row.column], row, row.runs_begin, row.lower_begin) /
        lu_(row.source, row.column);
  }
  const auto front_terms = static_cast<std::uint64_t>(f) * f;
  obs::CostLedger::charge_active(
      {.flops = 2 * (terms + front_terms) + s,
       .bytes = 16 * (terms + front_terms) + 8 * (2 * n)});
  return x;
}

// memlint:hot — dense triangular-solve kernel.
void LuFactorization::solve_block(const Matrix& a, std::span<const Row> rows,
                                  std::span<const double> b,
                                  std::span<double> x) {
  const std::size_t n = a.rows();
  charge_triangular_solve(n);
  // Forward substitution with permuted b: L y = P b. Each row runs over its
  // nonzero span only; a skipped term is sum − (±0).
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[rows[i].source];
    const auto row = a.row(i);
    for (std::size_t j = rows[i].l_begin; j < i; ++j) sum -= row[j] * x[j];
    x[i] = sum;
  }
  // Back substitution: U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    const auto row = a.row(ii);
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < rows[ii].u_end; ++j)
      sum -= row[j] * x[j];
    x[ii] = sum / row[ii];
  }
}

// memlint:hot — transposed triangular-solve kernel.
Vec LuFactorization::solve_transposed(std::span<const double> b) const {
  MEMLP_EXPECT_MSG(!singular_, "solve_transposed() on singular factorization");
  MEMLP_EXPECT_MSG(static_count_ == 0,
                   "solve_transposed() on a factor with static pivots");
  MEMLP_EXPECT(b.size() == lu_.rows());
  const std::size_t n = lu_.rows();
  charge_triangular_solve(n);
  // Solve U^T y = b (forward), then L^T z = y (backward), in place in x
  // with the i-th entry of y and z kept at x[source of row i], which
  // leaves x = P^T z.
  Vec x(n);  // memlint:allow(R9): result buffer; the caller owns the returned vector
  const auto at = [&](std::size_t i) -> double& { return x[rows_[i].source]; };
  for (std::size_t i = 0; i < n; ++i) at(i) = b[i];
  for (std::size_t i = 0; i < n; ++i) {
    double sum = at(i);
    for (std::size_t k = 0; k < i; ++k) sum -= lu_(k, i) * at(k);
    at(i) = sum / lu_(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = at(ii);
    for (std::size_t k = ii + 1; k < n; ++k) sum -= lu_(k, ii) * at(k);
    at(ii) = sum;
  }
  return x;
}

double LuFactorization::pivot(std::size_t k) const noexcept {
  if (static_count_ == 0) return lu_(k, k);
  if (k < static_count_) return lu_(rows_[k].source, rows_[k].column);
  const std::size_t a = k - static_count_;
  return front_(a, a);
}

double LuFactorization::determinant() const noexcept {
  if (singular_) return 0.0;
  double det = static_cast<double>(perm_sign_);
  for (std::size_t k = 0; k < lu_.rows(); ++k) det *= pivot(k);
  return det;
}

double LuFactorization::log_abs_determinant() const noexcept {
  if (singular_) return -std::numeric_limits<double>::infinity();
  double log_det = 0.0;
  for (std::size_t k = 0; k < lu_.rows(); ++k)
    log_det += std::log(std::abs(pivot(k)));
  return log_det;
}

std::optional<double> LuFactorization::inverse_norm_estimate() const {
  if (singular_) return std::nullopt;
  MEMLP_EXPECT_MSG(static_count_ == 0,
                   "inverse_norm_estimate() on a factor with static pivots");
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
