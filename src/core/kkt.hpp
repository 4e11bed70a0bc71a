// Shared pieces of the PDIP method: the interior state, the Newton/KKT
// system of Eq. (12), the µ rule of Eq. (8), and the step length of Eq. (11).
//
// System layout (dimensions m constraints, n variables; N = 2(n+m)):
//
//   rows:    r1 = [0, m)        A·∆x + ∆w           = b − A·x − w
//            r2 = [m, m+n)      Aᵀ·∆y − ∆z          = c − Aᵀ·y + z
//            r3 = [m+n, m+2n)   Z·∆x + X·∆z         = µ·e − X·Z·e
//            r4 = [m+2n, N)     W·∆y + Y·∆w         = µ·e − Y·W·e
//   columns: ∆x = [0, n), ∆y = [n, n+m), ∆w = [n+m, n+2m), ∆z = [n+2m, N)
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "lp/problem.hpp"

namespace memlp::core {

/// Interior-point iterate (all components kept strictly positive).
struct PdipState {
  Vec x;  ///< primal variables (n).
  Vec y;  ///< dual variables (m).
  Vec w;  ///< primal slacks (m).
  Vec z;  ///< dual slacks (n).

  /// The paper initializes with "an arbitrary guess"; the conventional
  /// all-ones point is used.
  static PdipState ones(std::size_t n, std::size_t m);

  /// zᵀx + yᵀw — duality gap.
  [[nodiscard]] double gap() const;

  /// Eq. (8): µ = δ · (zᵀx + yᵀw) / (n + m).
  [[nodiscard]] double mu(double delta) const;

  /// Clamps every component to at least `floor` (keeps the state strictly
  /// interior and crossbar-writable under analog noise).
  void clamp_floor(double floor);
};

/// Column offsets of the Eq. (12) layout.
struct KktLayout {
  std::size_t n = 0;
  std::size_t m = 0;
  [[nodiscard]] std::size_t dim() const noexcept { return 2 * (n + m); }
  [[nodiscard]] std::size_t col_x() const noexcept { return 0; }
  [[nodiscard]] std::size_t col_y() const noexcept { return n; }
  [[nodiscard]] std::size_t col_w() const noexcept { return n + m; }
  [[nodiscard]] std::size_t col_z() const noexcept { return n + 2 * m; }
  [[nodiscard]] std::size_t row_primal() const noexcept { return 0; }
  [[nodiscard]] std::size_t row_dual() const noexcept { return m; }
  [[nodiscard]] std::size_t row_xz() const noexcept { return m + n; }
  [[nodiscard]] std::size_t row_yw() const noexcept { return m + 2 * n; }
};

class NegativeFreeSystem;

/// The pivot plan of the negative-free Newton array `negfree` (built from
/// an Eq. (12) matrix of `layout`), in elimination order:
///   1. each compensation row s_j + p_ℓ = 0 on its p_ℓ column;
///   2. each Z·∆x + X·∆z row on {x_j, z_j};
///   3. each W·∆y + Y·∆w row on {y_i, w_i};
///   4. each primal row i on w_i;
///   5. each dual row j on z_j.
/// Most rows have two nonzeros, so the static phase eliminates them cheaply
/// and leaves a small dense front (linalg/lu.hpp).
PivotPlan newton_pivot_plan(const KktLayout& layout,
                            const NegativeFreeSystem& negfree);

/// Assembles the full Eq. (12) matrix for the given state.
Matrix assemble_kkt(const lp::LinearProgram& problem, const PdipState& state);

/// Overwrites only the X, Y, Z, W diagonal blocks of an assembled KKT
/// matrix (the per-iteration O(N) update of §3.5).
void update_kkt_diagonals(Matrix& kkt, const lp::LinearProgram& problem,
                          const PdipState& state);

/// Eq. (9) right-hand side [b−Ax−w; c−Aᵀy+z; µe−XZe; µe−YWe].
Vec kkt_rhs(const lp::LinearProgram& problem, const PdipState& state,
            double mu);

/// Step directions split out of a KKT solution vector.
struct StepDirection {
  Vec dx, dy, dw, dz;
};

/// Splits the Eq. (12) solution vector by the layout.
StepDirection split_step(const KktLayout& layout,
                         std::span<const double> delta);

/// Eq. (11): θ = r · min( (max_i −∆v_i/v_i)⁻¹ , 1 ) over all four component
/// groups; returns r when no component blocks the step. Components at or
/// below `dead_floor` are excluded from the ratio test — under analog noise
/// a component pinned at the state floor would otherwise freeze the whole
/// step (θ → 0); the post-step clamp keeps such components positive instead.
double step_length(const PdipState& state, const StepDirection& step,
                   double r, double dead_floor = 0.0);

/// The Eq. (11) ratio test split by problem side: `alpha_p` is blocked only
/// by the primal pair (x, w), `alpha_d` only by the dual pair (y, z). The
/// solvers apply the conservative min(alpha_p, alpha_d) — bitwise equal to
/// step_length() over all four groups — but trace the pair separately, so
/// convergence tables show which side limits progress.
struct StepLengths {
  double alpha_p = 0.0;
  double alpha_d = 0.0;
  [[nodiscard]] double applied() const noexcept {
    return std::min(alpha_p, alpha_d);
  }
};

/// Computes the split Eq. (11) step lengths (same r / dead_floor semantics
/// as step_length).
StepLengths step_lengths(const PdipState& state, const StepDirection& step,
                         double r, double dead_floor = 0.0);

/// Applies s ← s + θ·∆s to every component group.
void apply_step(PdipState& state, const StepDirection& step, double theta);

/// §3.1 divergence test: an unbounded dual iterate (|y| past `y_bound`)
/// signals primal infeasibility; an unbounded primal iterate signals an
/// unbounded objective. Returns nullopt when neither bound is exceeded.
/// Used both with a hard bound each iteration and with a soft bound when the
/// Newton system turns singular — on an infeasible/unbounded problem the
/// central path ceases to exist and the iterates blow the system up before
/// the hard bound is reached.
std::optional<lp::SolveStatus> classify_divergence(const PdipState& state,
                                                   double x_bound,
                                                   double y_bound);

/// Relative variant for the moment the Newton system turns singular: by then
/// the diverging group dwarfs the other one, long before any absolute bound
/// trips. `b_scale`/`c_scale` guard against misfires on small problems.
std::optional<lp::SolveStatus> classify_relative_divergence(
    const PdipState& state, double b_scale, double c_scale);

}  // namespace memlp::core
