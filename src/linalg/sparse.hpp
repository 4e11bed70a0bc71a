// Compressed sparse row (CSR) matrix.
//
// §3.5 notes that LP constraint matrices are typically sparse; the CSR form
// is the one representation of lp::LinearProgram constraint matrices: every
// product with A runs the CSR kernels below, and the sparsity-aware crossbar
// programming (structural zeros are free) mirrors the same observation on
// the hardware side.
//
// Canonical form invariant: within every row the column indices are strictly
// increasing, duplicates are summed at construction, and exact zeros are
// dropped. Both factories and every derived matrix (transposed, scaled)
// preserve it, so structural equality is plain container equality.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace memlp {

/// Immutable CSR matrix of doubles.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// Compresses a dense matrix; entries with |value| <= threshold drop out.
  static CsrMatrix from_dense(const Matrix& dense, double threshold = 0.0);

  /// Same as from_dense(dense). Implicit on purpose, so
  /// `problem.a = Matrix{{...}}` call sites keep working.
  CsrMatrix(const Matrix& dense)  // NOLINT(google-explicit-constructor)
      : CsrMatrix(from_dense(dense)) {}

  /// Builds from coordinate triplets (row, col, value); duplicates are
  /// summed. Throws DimensionError on out-of-range coordinates.
  struct Triplet {
    std::size_t row = 0;
    std::size_t col = 0;
    double value = 0.0;
  };
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// Fill fraction (nnz / rows·cols); 0 for an empty matrix.
  [[nodiscard]] double density() const noexcept;

  /// y = A·x.
  [[nodiscard]] Vec multiply(std::span<const double> x) const;

  /// y = Aᵀ·x.
  [[nodiscard]] Vec multiply_transposed(std::span<const double> x) const;

  /// Aᵀ in canonical CSR form (O(nnz)).
  [[nodiscard]] CsrMatrix transposed() const;

  /// factor·A; an exact-zero factor collapses to an empty pattern so the
  /// canonical no-stored-zeros invariant holds.
  [[nodiscard]] CsrMatrix scaled(double factor) const;

  /// Largest absolute stored value (0 when empty) — equals the dense
  /// max-abs because structural zeros cannot exceed any |value|.
  [[nodiscard]] double max_abs() const noexcept;

  /// Reconstructs the dense form.
  [[nodiscard]] Matrix to_dense() const;

  /// Element lookup (O(log nnz-in-row)); 0 for structural zeros.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// Raw CSR views for kernels that walk the structure directly.
  [[nodiscard]] std::span<const std::size_t> row_offsets() const noexcept {
    return row_offsets_;
  }
  [[nodiscard]] std::span<const std::size_t> column_indices() const noexcept {
    return column_indices_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

  /// Structural equality. Canonical form makes this exact: same shape and
  /// same nonzero entries ⇔ identical containers.
  bool operator==(const CsrMatrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_{0};
  std::vector<std::size_t> column_indices_;
  std::vector<double> values_;
};

}  // namespace memlp
