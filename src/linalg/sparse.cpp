#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/cost_ledger.hpp"

namespace memlp {
namespace {

/// Charges one sparse MVM: 2 flops per stored entry, bytes for the value +
/// index streams and both vectors. Closed-form, charged once per call, so
/// the attribution is thread-count-invariant.
void charge_spmv(std::size_t nnz, std::size_t rows, std::size_t cols) {
  obs::CostLedger::charge_active(
      {.flops = 2 * static_cast<std::uint64_t>(nnz),
       .bytes = 16 * static_cast<std::uint64_t>(nnz) +
                8 * static_cast<std::uint64_t>(rows + cols)});
}

}  // namespace

// Format conversion, not arithmetic — nothing to charge.
CsrMatrix CsrMatrix::from_dense(const Matrix& dense,  // memlint:allow(R10)
                                double threshold) {
  CsrMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  out.row_offsets_.assign(1, 0);
  out.row_offsets_.reserve(dense.rows() + 1);
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      const double value = dense(i, j);
      if (std::abs(value) > threshold) {
        out.column_indices_.push_back(j);
        out.values_.push_back(value);
      }
    }
    out.row_offsets_.push_back(out.values_.size());
  }
  return out;
}

// Index canonicalization, not arithmetic — nothing to charge.
CsrMatrix CsrMatrix::from_triplets(std::size_t rows,  // memlint:allow(R10)
                                   std::size_t cols,
                                   std::vector<Triplet> triplets) {
  for (const auto& t : triplets)
    if (t.row >= rows || t.col >= cols)
      throw DimensionError("csr: triplet out of range");
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_offsets_.assign(1, 0);
  std::size_t current_row = 0;
  for (std::size_t k = 0; k < triplets.size();) {
    // Sum duplicates.
    const std::size_t row = triplets[k].row;
    const std::size_t col = triplets[k].col;
    double sum = 0.0;
    while (k < triplets.size() && triplets[k].row == row &&
           triplets[k].col == col)
      sum += triplets[k++].value;
    while (current_row < row) {
      out.row_offsets_.push_back(out.values_.size());
      ++current_row;
    }
    if (sum != 0.0) {
      out.column_indices_.push_back(col);
      out.values_.push_back(sum);
    }
  }
  while (current_row < rows) {
    out.row_offsets_.push_back(out.values_.size());
    ++current_row;
  }
  return out;
}

double CsrMatrix::density() const noexcept {
  const std::size_t total = rows_ * cols_;
  return total == 0 ? 0.0
                    : static_cast<double>(nnz()) / static_cast<double>(total);
}

// memlint:hot — sparse-baseline MVM kernel.
Vec CsrMatrix::multiply(std::span<const double> x) const {
  MEMLP_EXPECT_MSG(x.size() == cols_, "csr multiply: size mismatch");
  charge_spmv(nnz(), rows_, cols_);
  Vec y(rows_, 0.0);  // memlint:allow(R9): result vector sized once per call; reuse is ROADMAP scale-up work
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k)
      sum += values_[k] * x[column_indices_[k]];
    y[i] = sum;
  }
  return y;
}

// memlint:hot — sparse-baseline transposed MVM kernel.
Vec CsrMatrix::multiply_transposed(std::span<const double> x) const {
  MEMLP_EXPECT_MSG(x.size() == rows_, "csr multiply_transposed: mismatch");
  charge_spmv(nnz(), rows_, cols_);
  Vec y(cols_, 0.0);  // memlint:allow(R9): result vector sized once per call; reuse is ROADMAP scale-up work
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k)
      y[column_indices_[k]] += values_[k] * xi;
  }
  return y;
}

// Index permutation only — nothing to charge.
CsrMatrix CsrMatrix::transposed() const {  // memlint:allow(R10)
  CsrMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  // Counting sort by column: count per-column entries, prefix-sum into the
  // transposed row offsets, then place. Row-major placement preserves
  // ascending order within each output row, keeping canonical form.
  out.row_offsets_.assign(cols_ + 1, 0);
  for (std::size_t c : column_indices_) ++out.row_offsets_[c + 1];
  for (std::size_t c = 0; c < cols_; ++c)
    out.row_offsets_[c + 1] += out.row_offsets_[c];
  out.column_indices_.resize(nnz());
  out.values_.resize(nnz());
  std::vector<std::size_t> cursor(out.row_offsets_.begin(),
                                  out.row_offsets_.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
      const std::size_t slot = cursor[column_indices_[k]]++;
      out.column_indices_[slot] = i;
      out.values_[slot] = values_[k];
    }
  return out;
}

CsrMatrix CsrMatrix::scaled(double factor) const {
  CsrMatrix out = *this;
  if (factor == 0.0) {
    // Keep the canonical no-stored-zeros invariant.
    out.row_offsets_.assign(rows_ + 1, 0);
    out.column_indices_.clear();
    out.values_.clear();
    return out;
  }
  for (double& v : out.values_) v *= factor;
  obs::CostLedger::charge_active(
      {.flops = static_cast<std::uint64_t>(nnz()),
       .bytes = 16 * static_cast<std::uint64_t>(nnz())});
  return out;
}

double CsrMatrix::max_abs() const noexcept {
  double best = 0.0;
  for (double v : values_) best = std::max(best, std::abs(v));
  return best;
}

// Format conversion, not arithmetic — nothing to charge.
Matrix CsrMatrix::to_dense() const {  // memlint:allow(R10)
  Matrix dense(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k)
      dense(i, column_indices_[k]) = values_[k];
  return dense;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  MEMLP_EXPECT(row < rows_ && col < cols_);
  const auto begin = column_indices_.begin() +
                     static_cast<std::ptrdiff_t>(row_offsets_[row]);
  const auto end = column_indices_.begin() +
                   static_cast<std::ptrdiff_t>(row_offsets_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - column_indices_.begin())];
}

}  // namespace memlp
