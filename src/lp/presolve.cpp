#include "lp/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "linalg/sparse.hpp"

namespace memlp::lp {
namespace {

constexpr double kZero = 1e-14;

/// One row of the active (kept rows x kept columns) submatrix, with
/// numerically-zero entries filtered out.
struct ActiveRow {
  std::vector<std::size_t> cols;
  std::vector<double> values;
};

ActiveRow active_row(const CsrMatrix& a, std::size_t i,
                     const std::vector<char>& keep_col) {
  ActiveRow row;
  const auto offsets = a.row_offsets();
  const auto cols = a.column_indices();
  const auto values = a.values();
  for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
    if (!keep_col[cols[k]] || std::abs(values[k]) <= kZero) continue;
    row.cols.push_back(cols[k]);
    row.values.push_back(values[k]);
  }
  return row;
}

bool rows_identical(const ActiveRow& a, const ActiveRow& b) {
  if (a.cols != b.cols) return false;
  for (std::size_t k = 0; k < a.values.size(); ++k)
    if (std::abs(a.values[k] - b.values[k]) > kZero) return false;
  return true;
}

}  // namespace

Vec PresolveResult::restore(std::span<const double> reduced_x,
                            std::size_t original_variables) const {
  MEMLP_EXPECT(reduced_x.size() == kept_columns.size());
  Vec x(original_variables, 0.0);
  for (std::size_t j = 0; j < kept_columns.size(); ++j)
    x[kept_columns[j]] = reduced_x[j];
  return x;
}

PresolveResult presolve(const LinearProgram& problem) {
  problem.validate();
  const CsrMatrix& a = problem.a;
  const std::size_t m = problem.num_constraints();
  const std::size_t n = problem.num_variables();
  const auto offsets = a.row_offsets();
  const auto cols = a.column_indices();
  const auto values = a.values();

  PresolveResult result;
  std::vector<char> keep_row(m, 1);
  std::vector<char> keep_col(n, 1);

  // Fixed-point loop: each pass recounts the active pattern in O(nnz) and
  // applies the empty-row/empty-column/singleton-row reductions; any removal
  // can expose further ones (e.g. a fixed variable emptying a row).
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::size_t> row_nnz(m, 0);
    std::vector<std::size_t> col_nnz(n, 0);
    // Last active entry per row; valid where row_nnz == 1 (singleton rows).
    std::vector<std::size_t> single_entry(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      if (!keep_row[i]) continue;
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        if (!keep_col[cols[k]] || std::abs(values[k]) <= kZero) continue;
        ++row_nnz[i];
        ++col_nnz[cols[k]];
        single_entry[i] = k;
      }
    }

    // --- Columns: a variable absent from every active constraint.
    for (std::size_t j = 0; j < n; ++j) {
      if (!keep_col[j] || col_nnz[j] != 0) continue;
      if (problem.c[j] > kZero) {
        // max cᵀx with a free-to-grow variable: unbounded.
        result.outcome = PresolveResult::Outcome::kUnbounded;
        return result;
      }
      keep_col[j] = 0;  // x_j = 0 at optimum (c_j <= 0).
      changed = true;
    }
    if (changed) continue;  // recount before the row passes

    // --- Rows: empty and singleton.
    for (std::size_t i = 0; i < m; ++i) {
      if (!keep_row[i]) continue;
      if (row_nnz[i] == 0) {
        if (problem.b[i] < -kZero) {
          // 0 ≤ b with b < 0: contradiction.
          result.outcome = PresolveResult::Outcome::kInfeasible;
          return result;
        }
        keep_row[i] = 0;
        changed = true;
        continue;
      }
      if (row_nnz[i] != 1) continue;
      const std::size_t j = cols[single_entry[i]];
      const double coefficient = values[single_entry[i]];
      if (coefficient > kZero) {
        if (problem.b[i] < -kZero) {
          // a·x_j ≤ b < 0 with a > 0, x_j ≥ 0: contradiction.
          result.outcome = PresolveResult::Outcome::kInfeasible;
          return result;
        }
        if (problem.b[i] <= kZero) {
          // x_j ≤ 0 and x_j ≥ 0: the variable is fixed at zero.
          keep_col[j] = 0;
          keep_row[i] = 0;
          changed = true;
        }
        // b > 0: an ordinary bound row, keep it.
      } else if (problem.b[i] >= -kZero) {
        // a·x_j ≤ b with a < 0 ≤ b holds for every x_j ≥ 0: redundant.
        keep_row[i] = 0;
        changed = true;
      }
    }
  }

  // --- Duplicate rows over the active pattern: keep the tightest bound.
  {
    std::vector<ActiveRow> active(m);
    for (std::size_t i = 0; i < m; ++i)
      if (keep_row[i]) active[i] = active_row(a, i, keep_col);
    for (std::size_t i = 0; i < m; ++i) {
      if (!keep_row[i]) continue;
      for (std::size_t k = i + 1; k < m; ++k) {
        if (!keep_row[k]) continue;
        if (!rows_identical(active[i], active[k])) continue;
        if (problem.b[k] < problem.b[i]) keep_row[i] = 0;
        else keep_row[k] = 0;
        if (!keep_row[i]) break;
      }
    }
  }

  for (std::size_t i = 0; i < m; ++i)
    if (keep_row[i]) result.kept_rows.push_back(i);
  for (std::size_t j = 0; j < n; ++j)
    if (keep_col[j]) result.kept_columns.push_back(j);

  // An LP needs at least one row and one column to stay in canonical form;
  // degenerate fully-reduced cases keep one representative.
  if (result.kept_rows.empty()) result.kept_rows.push_back(0);
  if (result.kept_columns.empty()) result.kept_columns.push_back(0);

  // Rebuild the reduced matrix through from_triplets: the result is in
  // canonical CSR form whatever the input looked like.
  std::vector<std::size_t> col_position(n, 0);
  std::vector<char> col_kept(n, 0);
  for (std::size_t j = 0; j < result.kept_columns.size(); ++j) {
    col_position[result.kept_columns[j]] = j;
    col_kept[result.kept_columns[j]] = 1;
  }
  std::vector<CsrMatrix::Triplet> triplets;
  triplets.reserve(a.nnz());
  result.reduced.b.resize(result.kept_rows.size());
  for (std::size_t i = 0; i < result.kept_rows.size(); ++i) {
    const std::size_t row = result.kept_rows[i];
    result.reduced.b[i] = problem.b[row];
    for (std::size_t k = offsets[row]; k < offsets[row + 1]; ++k)
      if (col_kept[cols[k]])
        triplets.push_back({i, col_position[cols[k]], values[k]});
  }
  result.reduced.a = CsrMatrix::from_triplets(
      result.kept_rows.size(), result.kept_columns.size(),
      std::move(triplets));
  result.reduced.c.resize(result.kept_columns.size());
  for (std::size_t j = 0; j < result.kept_columns.size(); ++j)
    result.reduced.c[j] = problem.c[result.kept_columns[j]];
  result.reduced.validate();
  return result;
}

}  // namespace memlp::lp
