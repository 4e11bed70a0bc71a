// LU factorization: partial pivoting, optionally after a planned static
// elimination.
//
// This is the O(N^3) direct solver the paper cites for the software PDIP
// baseline ("Gaussian Elimination method or LU-Decomposition", §3.5), and it
// is also how the simulator evaluates the crossbar's analog linear-system
// solve: the crossbar physically settles to the solution of C·VI = VO in
// O(1); the simulator obtains the same vector (up to round-off) by
// factoring the varied conductance matrix, with a pivot plan that keeps
// the work near the array's nonzeros.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace memlp {

/// One entry of a pivot plan: a row of the matrix and the one or two
/// columns it may be pivoted on (`alternative` is kNoColumn for one).
struct PlannedPivot {
  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);
  std::size_t row = 0;
  std::size_t column = 0;
  std::size_t alternative = kNoColumn;
};

/// An ordered list of planned pivots, each row at most once: O(N) entries
/// a caller derives from its matrix's block structure.
using PivotPlan = std::vector<PlannedPivot>;

/// LU factorization PAQ = LU of a square matrix: the one LU kernel behind
/// every crossbar/NoC settle (FactorizationCache) and every software Newton
/// solve. Storage is dense; the arithmetic skips structural zeros, which
/// matters because the settle arrays are ~4 % nonzero.
///
/// Without a pivot plan, Q = I and P is partial pivoting (the dense block
/// below). With one, the factorization runs in two phases:
///   * Static phase. The plan's rows are eliminated in plan order, each on
///     the live candidate column holding its larger |value| (the
///     larger-entry rule). A row is deferred to the front instead when all
///     its candidate columns are gone, or when that entry is below
///     kStaticPivotThreshold × its column's largest |value| over the rows
///     not yet eliminated (the threshold rule). Column patterns are tracked
///     as bitsets, so the rows a pivot updates and its column maximum come
///     from the column's nonzeros, not a scan over all N rows; each update
///     sweeps the pivot row's nonzero runs.
///   * Front. The rows and columns left over form the front, gathered in
///     natural order and factored by the dense block kernel.
/// A plan that eliminates nothing leaves the front = the whole matrix in
/// natural order, factored in place: bit for bit the unplanned factor.
/// The ledger is charged 2 flops per nonzero static update plus one per
/// multiplier and the front's closed-form dense count; a planned solve,
/// 2 flops per term it sweeps.
class LuFactorization {
 public:
  /// Static pivots below this fraction of their column's largest remaining
  /// |entry| are deferred to the front.
  static constexpr double kStaticPivotThreshold = 0.01;

  /// Factors `a`. Without a plan (or when the plan eliminates nothing) the
  /// dense block kernel factors it in place: a panel-blocked right-looking
  /// elimination. Blocking only reorders *when* rank-1 updates are applied
  /// (deferred per panel, cache-friendly and parallel over trailing rows,
  /// up to four pivots per pass over a row); every element still receives
  /// its updates in increasing pivot order, one rounded product and one
  /// rounded difference per pivot, and pivots are searched on final values
  /// — the textbook unblocked loop's pivots and arithmetic, at any thread
  /// count. Zero multipliers, zero runs of the pivot rows and the zeros
  /// outside each row's L/U span are skipped: for finite input every
  /// skipped operation is v − (±0) (|multiplier| ≤ 1 under partial
  /// pivoting), so each nonzero of the factor and of solve() is
  /// bit-identical to that loop's, and at most the sign of an exact zero
  /// can differ. The dense ledger charge is the closed-form count all the
  /// same. Throws DimensionError if not square. Singularity is not an
  /// exception — check singular() before calling solve().
  explicit LuFactorization(Matrix a, std::span<const PlannedPivot> plan = {});

  /// True when a zero (or numerically negligible) pivot was met.
  [[nodiscard]] bool singular() const noexcept { return singular_; }

  /// Solves A x = b. Requires !singular().
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Solves A^T x = b (U^T L^T P x = b). Requires !singular() and a factor
  /// whose static phase eliminated nothing.
  [[nodiscard]] Vec solve_transposed(std::span<const double> b) const;

  /// Determinant of A (may overflow to +-inf for large matrices; use
  /// log_abs_determinant for scale analysis).
  [[nodiscard]] double determinant() const noexcept;

  /// log(|det A|); -inf when singular.
  [[nodiscard]] double log_abs_determinant() const noexcept;

  /// Hager-style estimate of ||A^{-1}||_1 (multiply by ||A||_1 for a
  /// condition-number estimate). Returns nullopt when singular. Like
  /// solve_transposed(), requires a factor without static pivots.
  [[nodiscard]] std::optional<double> inverse_norm_estimate() const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

  /// Gives up the factor's N² storage (its values are the factor's), for
  /// the next factorization to be built into.
  [[nodiscard]] Matrix release() && noexcept { return std::move(lu_); }

  /// Rows factored by the dense block kernel: N − the static pivots.
  [[nodiscard]] std::size_t front_dim() const noexcept {
    return size() - static_count_;
  }

  /// Plan rows the static phase deferred to the front.
  [[nodiscard]] std::size_t deferred_pivots() const noexcept {
    return deferred_;
  }

  /// Columns [lo, hi) of a row.
  struct Span {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

 private:
  /// Row i of the factor: its source row (row i of PA) and, for a dense
  /// block, the columns outside which its L and U parts hold only zeros.
  /// A planned factor's row i pivots column `column` of A. Its row of A
  /// holds its U part (right of the pivot in elimination order) only on
  /// runs_[runs_begin, lower_begin) and its L part only on
  /// runs_[lower_begin, runs_end); a front row has no U runs.
  struct Row {
    std::size_t source = 0;
    std::size_t column = 0;
    std::size_t l_begin = 0;  ///< L(i, j) == 0 for j < l_begin.
    std::size_t u_end = 0;    ///< U(i, j) == 0 for j >= u_end.
    std::size_t runs_begin = 0;
    std::size_t lower_begin = 0;
    std::size_t runs_end = 0;
  };

  /// The dense block kernel: factors `a` in place with partial pivoting,
  /// swapping rows[i].source along with row i, and records each row's L/U
  /// span. A pivot at or below kPivotTolerance × `scale` makes the block
  /// singular (returns true).
  static bool factor_block(Matrix& a, std::span<Row> rows, double scale,
                           int& perm_sign);

  /// Forward and back substitution through a dense block: x = U⁻¹L⁻¹ of
  /// b permuted by the rows' sources.
  static void solve_block(const Matrix& a, std::span<const Row> rows,
                          std::span<const double> b, std::span<double> x);

  /// The static phase and the front (see the class comment). Returns the
  /// singularity scale max(max |a_ij|, 1) of A.
  double factor_planned(std::span<const PlannedPivot> plan);

  /// The k-th diagonal entry of U.
  [[nodiscard]] double pivot(std::size_t k) const noexcept;

  Matrix lu_;     // L (unit diag, below) and U (on/above); planned: A with
                  // its static rows' L and U in place.
  Matrix front_;  // planned: the front's dense factor.
  std::vector<Row> rows_;
  std::vector<Span> runs_;  // planned: every row's nonzero runs.
  std::size_t static_count_ = 0;
  std::size_t deferred_ = 0;
  int perm_sign_ = 1;
  bool singular_ = false;
};

/// One-shot convenience: solves A x = b via LU. Throws NumericalError when A
/// is singular.
Vec lu_solve(const Matrix& a, std::span<const double> b);

}  // namespace memlp
