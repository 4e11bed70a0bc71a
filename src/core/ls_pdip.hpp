// Memristor crossbar-based LP solver for large-scale operations
// (§3.4, Algorithm 2).
//
// Instead of the monolithic Eq. (14a) system over all step directions, each
// iteration solves two much smaller systems. Following Algorithm 2's "update
// coefficient matrix M1 … based on A, x, y", we read Eq. (16c)'s balancing
// blocks as the diagonal Schur-complement terms obtained by eliminating ∆w
// and ∆z from the Newton system (Eq. 9):
//
//   M1 = [ A     RU ]   with  RU = −Y⁻¹W  (m×m diagonal),
//        [ RL    Aᵀ ]         RL =  X⁻¹Z  (n×n diagonal),
//
//   M1·[∆x; ∆y] = [ b − Ax − µ./y ;  c − Aᵀy + µ./x ]
//
// — exactly Eq. (16a/16c) with corner blocks whose off-diagonal entries are
// zero and whose diagonal values become "very small" for the binding
// components as the iterate converges. M2 = diag([x; y]) (Eq. 16b) then
// recovers the slack directions:
//
//   X·∆z = µe − XZe − Z∘∆x,    Y·∆w = µe − YWe − W∘∆y,
//
// (the Z∘∆x / W∘∆y cross terms are computed by analog multipliers; dropping
// them — the literal reading of Eq. 16b — does not converge). θ is a
// constant (§3.4); positivity is maintained by a small floor.
//
// Hardware notes (full discussion in DESIGN.md):
//  * The A / Aᵀ blocks of M1 are programmed once per attempt; only the
//    2(n+m) corner-diagonal and M2-diagonal cells are rewritten per
//    iteration — O(N), which is why this solver's latency is nearly flat in
//    the variation level (§4.4).
//  * The corner diagonals span many decades (w_i/y_i → ∞ for inactive
//    constraints), so M1's array uses per-cell gain-ranged writes
//    (CrossbarConfig::per_cell_gain_ranging) and the ratios are capped at
//    `ratio_cap`; the cap only touches components whose step is ~0.
//  * A failed attempt (stall, failed α-check, singular effective array) is
//    retried with a freshly programmed crossbar — the paper's
//    double-checking scheme (§4.3/§4.5).
#pragma once

#include "core/kkt.hpp"
#include "core/xbar_pdip.hpp"

namespace memlp::core {

/// How to realize Eq. (16c)'s RU/RL balancing blocks.
enum class M1Mode {
  /// Diagonal Schur terms −Y⁻¹W / X⁻¹Z (default; converges).
  kSchurDiagonal,
  /// The literal "very small random values" reading — kept as an ablation;
  /// its 1/ε step amplification keeps it from converging.
  kLiteralBalanced,
};

/// How the slack directions ∆z, ∆w are recovered after system 1.
enum class RecoveryMode {
  /// Division-free, via the primal/dual equations (9a)/(9b) and two extra
  /// M1 settles: ∆w = (b − Ax − w) − A∆x, ∆z = Aᵀ∆y − (c − Aᵀy + z).
  /// Robust under analog noise (default).
  kStable,
  /// The paper's Eq. (16b) diagonal solve on M2 = diag([x; y]). Exact in
  /// ideal math, but the 1/x̂, 1/ŷ divisions amplify analog noise by up to
  /// `ratio_cap` on the near-zero diagonal entries (ablation).
  kM2Diagonal,
};

/// Options of the large-scale crossbar solver.
struct LsPdipOptions {
  /// Algorithmic parameters; eps/divergence/max_iterations reused.
  PdipOptions pdip{};
  /// Hardware selection for the M1 system (M2 is diagonal and small).
  BackendOptions hardware{};
  /// Constant step length θ (§3.4).
  double theta = 0.5;
  M1Mode m1_mode = M1Mode::kSchurDiagonal;
  RecoveryMode recovery = RecoveryMode::kStable;
  /// Cap on the w_i/y_i and z_j/x_j corner-diagonal ratios.
  double ratio_cap = 1e3;
  /// Magnitude of RU/RL in kLiteralBalanced mode, relative to mean |A|.
  double balancing_scale = 0.02;
  /// α of the final constraint check.
  double alpha = 1.05;
  double full_scale_headroom = 4.0;
  std::size_t max_retries = 3;
  double acceptance_merit = 0.1;
  std::size_t stall_window = 30;
  double state_floor = 1e-10;
  std::uint64_t seed = 0x5eed;
};

/// Solves the LP with the large-scale two-system scheme (Algorithm 2).
/// `stats.system_dim` reports the augmented M1 dimension.
XbarSolveOutcome solve_ls_pdip(const lp::LinearProgram& problem,
                               const LsPdipOptions& options = {});

/// Builds the literal-mode M1 base matrix [[A, RU],[RL, Aᵀ]] with small
/// random balancing values, by the paper's rule (§3.4): RU is filled when
/// m >= n and RL when n >= m (exposed for tests and the balancing ablation).
Matrix build_balanced_m1(const lp::LinearProgram& problem,
                         double balancing_scale, Rng& rng);

/// Builds the Schur-diagonal M1 base matrix for the given state (exposed for
/// tests). The off-diagonal corner entries stay zero.
Matrix build_schur_m1(const lp::LinearProgram& problem,
                      const PdipState& state, double ratio_cap);

class NegativeFreeSystem;

/// The pivot plan of the negative-free Schur-diagonal M1 array `negfree`
/// (built from build_schur_m1 of an LP with n variables and m
/// constraints), in elimination order:
///   1. each compensation row x_j + p_ℓ = 0 of an x column on its p_ℓ;
///   2. each primal row i on the compensation column of y_i, which holds
///      w_i/ŷ_i;
///   3. each compensation row y_i + p_ℓ = 0 on y_i;
///   4. each dual row m+j on x_j, which holds z_j/x̂_j.
/// Steps 2–4 eliminate the −Y⁻¹W corner and leave the n×n
/// X⁻¹Z + Aᵀ(Y⁻¹W)⁻¹A block on the dual rows. Taking every compensation
/// row first, as newton_pivot_plan does, leaves fronts up to four times
/// larger (max 902 against 223 of 2720 on an m = 1024 block-diagonal LP).
PivotPlan ls_pivot_plan(std::size_t n, std::size_t m,
                        const NegativeFreeSystem& negfree);

}  // namespace memlp::core
