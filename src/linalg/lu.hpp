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

/// LU factorization (PA = LU) of a square matrix: the one LU kernel behind
/// every crossbar/NoC settle (FactorizationCache) and every software Newton
/// solve. Storage and pivoting are dense; the arithmetic skips structural
/// zeros, which matters because the settle arrays are ~4 % nonzero.
class LuFactorization {
 public:
  /// Factors `a` with a panel-blocked right-looking elimination. Blocking
  /// only reorders *when* rank-1 updates are applied (deferred per panel,
  /// cache-friendly and parallel over trailing rows, up to four pivots per
  /// pass over a row); every element still receives its updates in
  /// increasing pivot order, one rounded product and one rounded
  /// difference per pivot, and pivots are searched on final values — the
  /// textbook unblocked loop's pivots and arithmetic, at any thread count.
  /// Zero multipliers, zero runs of the pivot rows and the zeros outside
  /// each row's L/U span are skipped: for finite input every skipped
  /// operation is v − (±0) (|multiplier| ≤ 1 under partial pivoting), so
  /// each nonzero of the factor and of solve() is bit-identical to that
  /// loop's, and at most the sign of an exact zero can differ. The ledger
  /// is charged the closed-form dense flop count all the same.
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
  /// Row i of the factor: its source row in A (row i of PA) and the
  /// columns outside which its L and U parts hold only zeros.
  struct Row {
    std::size_t source = 0;
    std::size_t l_begin = 0;  ///< L(i, j) == 0 for j < l_begin.
    std::size_t u_end = 0;    ///< U(i, j) == 0 for j >= u_end.
  };

  Matrix lu_;              // L (unit diag, below) and U (on/above).
  std::vector<Row> rows_;
  int perm_sign_ = 1;
  bool singular_ = false;
};

/// One-shot convenience: solves A x = b via LU. Throws NumericalError when A
/// is singular.
Vec lu_solve(const Matrix& a, std::span<const double> b);

}  // namespace memlp
