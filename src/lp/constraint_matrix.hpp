// Sparse-first constraint-matrix holder for lp::LinearProgram.
//
// §3.5 observes that real LP constraint matrices are overwhelmingly sparse;
// since the sparse-first pipeline refactor the CSR form (linalg::CsrMatrix)
// is the source of truth for every problem's A. A dense view is retained as
// an explicit, lazily-materialized escape hatch for consumers that genuinely
// need contiguous storage (LU factorizations, crossbar programming, the M1
// preconditioner in ls_pdip).
//
// Dispatch contract: problems whose density is at or above the cutoff run
// the legacy dense kernels (gemv) byte-for-byte — including
// their CostLedger charges — so the pinned golden traces and the bench
// baseline are unaffected. Sparse problems take the CSR kernels.
#pragma once

#include <memory>
#include <span>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace memlp::lp {

/// Constraint matrix stored canonically as CSR with an optional cached dense
/// view. Copies are cheap-ish (CSR copy) and share the dense cache.
class ConstraintMatrix {
 public:
  /// Fill fraction below which the sparse kernels win and are dispatched to.
  static constexpr double kSparseDensityCutoff = 0.25;

  /// Empty 0x0 matrix.
  ConstraintMatrix() = default;

  /// From a dense matrix. The original dense storage is kept as the cached
  /// view, so `dense()` returns it byte-identically. Implicit on purpose:
  /// existing `problem.a = Matrix{{...}}` call sites keep working.
  ConstraintMatrix(Matrix dense);  // NOLINT(google-explicit-constructor)

  /// From a CSR matrix; the dense view materializes on first request.
  ConstraintMatrix(CsrMatrix csr);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t rows() const noexcept { return csr_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return csr_.cols(); }
  [[nodiscard]] bool empty() const noexcept { return rows() == 0 || cols() == 0; }
  [[nodiscard]] std::size_t nnz() const noexcept { return csr_.nnz(); }
  [[nodiscard]] double density() const noexcept { return csr_.density(); }

  /// True when this matrix should take the sparse code paths.
  [[nodiscard]] bool prefers_sparse() const noexcept {
    return csr_.density() < kSparseDensityCutoff;
  }

  /// Element read; O(1) with a dense cache, O(log nnz-in-row) without.
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return dense_ ? (*dense_)(i, j) : csr_.at(i, j);
  }

  /// The CSR source of truth.
  [[nodiscard]] const CsrMatrix& csr() const noexcept { return csr_; }

  /// The dense escape hatch. Materialized from CSR on first call and cached;
  /// the first call is not thread-safe (materialize before fanning out).
  [[nodiscard]] const Matrix& dense() const;

  /// True when the dense view is already materialized.
  [[nodiscard]] bool has_dense() const noexcept { return dense_ != nullptr; }

  /// y = A·x / y = Aᵀ·x, dispatched by `prefers_sparse()`. Dense problems
  /// run linalg::gemv{,_transposed} with their original ledger charges.
  [[nodiscard]] Vec multiply(std::span<const double> x) const;
  [[nodiscard]] Vec multiply_transposed(std::span<const double> x) const;

  /// Aᵀ. Dense-cached inputs transpose densely (numerically identical to the
  /// pre-refactor behaviour); CSR-only inputs stay sparse.
  [[nodiscard]] ConstraintMatrix transposed() const;

  /// factor·A, same dense/sparse routing as `transposed()`.
  [[nodiscard]] ConstraintMatrix scaled(double factor) const;

  /// Largest |a_ij| (0 when empty); identical for the CSR and dense views.
  [[nodiscard]] double max_abs() const noexcept { return csr_.max_abs(); }

  /// True when every stored entry is >= 0 (structural zeros trivially are).
  [[nodiscard]] bool nonnegative() const noexcept;

  /// Structural equality via the canonical CSR form.
  [[nodiscard]] bool operator==(const ConstraintMatrix& other) const {
    return csr_ == other.csr_;
  }

 private:
  CsrMatrix csr_;
  mutable std::shared_ptr<const Matrix> dense_;
};

}  // namespace memlp::lp
