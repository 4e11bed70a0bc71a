// LU factorization with partial pivoting.
//
// This is the O(N^3) direct solver the paper cites for the software PDIP
// baseline ("Gaussian Elimination method or LU-Decomposition", §3.5), and it
// is also how the simulator evaluates the crossbar's analog linear-system
// solve: the crossbar physically settles to the solution of C·VI = VO in
// O(1); the simulator obtains the identical vector by factoring the varied
// conductance matrix.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"

namespace memlp {

/// LU factorization (PA = LU) of a square matrix.
class LuFactorization {
 public:
  /// Factors `a` with a panel-blocked right-looking elimination. Blocking
  /// only reorders *when* rank-1 updates are applied (deferred per panel,
  /// cache-friendly and parallel over trailing rows); every element still
  /// receives its updates in increasing pivot order, so the factor is
  /// bit-identical to the textbook unblocked loop at any thread count.
  /// Throws DimensionError if not square. Singularity is not an exception —
  /// check singular() before calling solve().
  explicit LuFactorization(Matrix a);

  /// True when a zero (or numerically negligible) pivot was met.
  [[nodiscard]] bool singular() const noexcept { return singular_; }

  /// Solves A x = b. Requires !singular().
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Solves A^T x = b (U^T L^T P x = b). Requires !singular().
  [[nodiscard]] Vec solve_transposed(std::span<const double> b) const;

  /// Determinant of A (may overflow to +-inf for large matrices; use
  /// log_abs_determinant for scale analysis).
  [[nodiscard]] double determinant() const noexcept;

  /// log(|det A|); -inf when singular.
  [[nodiscard]] double log_abs_determinant() const noexcept;

  /// Hager-style estimate of ||A^{-1}||_1 (multiply by ||A||_1 for a
  /// condition-number estimate). Returns nullopt when singular.
  [[nodiscard]] std::optional<double> inverse_norm_estimate() const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  Matrix lu_;                      // L (unit diag, below) and U (on/above).
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is perm_[i].
  int perm_sign_ = 1;
  bool singular_ = false;
};

/// One-shot convenience: solves A x = b via LU. Throws NumericalError when A
/// is singular.
Vec lu_solve(const Matrix& a, std::span<const double> b);

}  // namespace memlp
