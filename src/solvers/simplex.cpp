#include "solvers/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "common/stopwatch.hpp"
#include "linalg/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace memlp::solvers {
namespace {

// Internal dense tableau for minimization of fᵀv subject to the equality
// system [A | S | R]·v = b with v >= 0, where S are signed slacks and R the
// Phase-1 artificials. The last tableau row holds reduced costs.
class Tableau {
 public:
  Tableau(const lp::LinearProgram& problem, const SimplexOptions& options)
      : options_(options),
        m_(problem.num_constraints()),
        n_(problem.num_variables()) {
    // Count artificials: one per row with negative b (after sign flip the
    // slack coefficient is -1, so the slack cannot seed the basis).
    for (std::size_t i = 0; i < m_; ++i)
      if (problem.b[i] < 0.0) artificial_rows_.push_back(i);
    num_artificials_ = artificial_rows_.size();
    cols_ = n_ + m_ + num_artificials_;
    body_ = Matrix(m_ + 1, cols_ + 1);
    basis_.assign(m_, 0);

    std::size_t next_artificial = n_ + m_;
    // The tableau is dense anyway; fill its A block from the CSR entries so
    // sparse problems skip the structural zeros.
    {
      const auto& a = problem.a;
      const auto offsets = a.row_offsets();
      const auto cols = a.column_indices();
      const auto values = a.values();
      for (std::size_t i = 0; i < m_; ++i) {
        const double sign = problem.b[i] < 0.0 ? -1.0 : 1.0;
        for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k)
          body_(i, cols[k]) = sign * values[k];
      }
    }
    for (std::size_t i = 0; i < m_; ++i) {
      const double sign = problem.b[i] < 0.0 ? -1.0 : 1.0;
      body_(i, n_ + i) = sign;  // slack
      body_(i, cols_) = sign * problem.b[i];
      if (problem.b[i] < 0.0) {
        body_(i, next_artificial) = 1.0;
        basis_[i] = next_artificial++;
      } else {
        basis_[i] = n_ + i;
      }
    }
  }

  /// Runs both phases; returns the solver status.
  lp::SolveStatus run(const lp::LinearProgram& problem) {
    if (num_artificials_ > 0) {
      obs::ProfileSpan phase1_span("phase1");
      load_phase1_costs();
      const lp::SolveStatus phase1 = iterate();
      if (phase1 != lp::SolveStatus::kOptimal) return phase1;
      if (artificial_infeasibility() > 1e-7)
        return lp::SolveStatus::kInfeasible;
      if (!drive_out_artificials()) return lp::SolveStatus::kNumericalFailure;
    }
    obs::ProfileSpan phase2_span("phase2");
    load_phase2_costs(problem);
    return iterate();
  }

  /// Extracts the primal solution (first n variables).
  [[nodiscard]] Vec primal() const {
    Vec x(n_, 0.0);
    for (std::size_t i = 0; i < m_; ++i)
      if (basis_[i] < n_) x[basis_[i]] = body_(i, cols_);
    return x;
  }

  /// Dual solution: at a min-optimum the reduced cost of slack i equals the
  /// canonical-max dual y_i (>= 0).
  [[nodiscard]] Vec dual() const {
    Vec y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i)
      y[i] = std::max(0.0, body_(m_, n_ + i));
    return y;
  }

  [[nodiscard]] std::size_t pivots() const noexcept { return pivots_; }

  /// Pivots whose leaving row had rhs ≈ 0 — the basis changed but the
  /// objective did not move (degeneracy/cycling pressure indicator).
  [[nodiscard]] std::size_t degenerate_pivots() const noexcept {
    return degenerate_pivots_;
  }

  /// Pivots spent in Phase 1 (feasibility search), incl. driving artificials
  /// out of the basis.
  [[nodiscard]] std::size_t phase1_pivots() const noexcept {
    return phase1_pivots_;
  }

 private:
  void load_phase1_costs() {
    // Minimize the sum of artificials: cost 1 on artificial columns. Price
    // out the basic artificials so reduced costs start consistent.
    for (std::size_t j = 0; j <= cols_; ++j) body_(m_, j) = 0.0;
    for (std::size_t j = n_ + m_; j < cols_; ++j) body_(m_, j) = 1.0;
    for (std::size_t i = 0; i < m_; ++i)
      if (basis_[i] >= n_ + m_)
        for (std::size_t j = 0; j <= cols_; ++j)
          body_(m_, j) -= body_(i, j);
    phase1_ = true;
  }

  void load_phase2_costs(const lp::LinearProgram& problem) {
    // Minimize -cᵀx; artificial columns are barred from re-entering.
    for (std::size_t j = 0; j <= cols_; ++j) body_(m_, j) = 0.0;
    for (std::size_t j = 0; j < n_; ++j) body_(m_, j) = -problem.c[j];
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t basic = basis_[i];
      const double cost = basic < n_ ? -problem.c[basic] : 0.0;
      if (cost == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j)
        body_(m_, j) -= cost * body_(i, j);
    }
    phase1_ = false;
  }

  [[nodiscard]] double artificial_infeasibility() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < m_; ++i)
      if (basis_[i] >= n_ + m_) sum += body_(i, cols_);
    return sum;
  }

  /// After Phase 1, pivots any basic artificial (at value 0) out of the
  /// basis; rows with no eligible pivot are redundant and are zeroed.
  bool drive_out_artificials() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_ + m_) continue;
      std::size_t entering = cols_;
      for (std::size_t j = 0; j < n_ + m_; ++j)
        if (std::abs(body_(i, j)) > 1e-9) {
          entering = j;
          break;
        }
      if (entering == cols_) {
        // Redundant constraint: the row is all-zero on structural columns.
        for (std::size_t j = 0; j <= cols_; ++j) body_(i, j) = 0.0;
        continue;
      }
      pivot(i, entering);
    }
    return true;
  }

  lp::SolveStatus iterate() {
    const std::size_t scale = m_ + n_;
    const std::size_t factor =
        options_.max_pivot_factor == 0 ? 50 : options_.max_pivot_factor;
    const std::size_t max_pivots = std::max<std::size_t>(factor * scale, 200);
    const std::size_t bland_after =
        std::max<std::size_t>(options_.bland_after_factor * scale, 100);
    for (std::size_t local = 0; local < max_pivots; ++local) {
      const bool bland = local >= bland_after;
      const std::size_t entering = choose_entering(bland);
      if (entering == cols_) return lp::SolveStatus::kOptimal;
      const std::size_t leaving = ratio_test(entering);
      if (leaving == m_)
        return phase1_ ? lp::SolveStatus::kNumericalFailure
                       : lp::SolveStatus::kUnbounded;
      pivot(leaving, entering);
    }
    return lp::SolveStatus::kIterationLimit;
  }

  [[nodiscard]] std::size_t choose_entering(bool bland) const {
    const std::size_t limit = phase1_ ? cols_ : n_ + m_;  // bar artificials
    std::size_t best = cols_;
    double best_cost = -options_.tolerance;
    for (std::size_t j = 0; j < limit; ++j) {
      const double reduced = body_(m_, j);
      if (reduced < best_cost) {
        best = j;
        best_cost = reduced;
        if (bland) break;  // first eligible index
      }
    }
    return best;
  }

  [[nodiscard]] std::size_t ratio_test(std::size_t entering) const {
    std::size_t leaving = m_;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m_; ++i) {
      const double coefficient = body_(i, entering);
      if (coefficient <= 1e-11) continue;
      const double ratio = body_(i, cols_) / coefficient;
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 &&
           (leaving == m_ || basis_[i] < basis_[leaving]))) {
        best_ratio = ratio;
        leaving = i;
      }
    }
    return leaving;
  }

  // Cache-line aligned: the row-elimination loop below ran up to a third
  // slower when unrelated code size moved this function from a 64-byte
  // boundary to a 32-byte one.
  [[gnu::aligned(64)]] void pivot(std::size_t row, std::size_t col) {
    ++pivots_;
    if (phase1_) ++phase1_pivots_;
    if (std::abs(body_(row, cols_)) <= 1e-11) ++degenerate_pivots_;
    const double pivot_value = body_(row, col);
    MEMLP_ASSERT(std::abs(pivot_value) > 1e-12);
    const double inv = 1.0 / pivot_value;
    for (std::size_t j = 0; j <= cols_; ++j) body_(row, j) *= inv;
    for (std::size_t i = 0; i <= m_; ++i) {
      if (i == row) continue;
      const double factor = body_(i, col);
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j)
        body_(i, j) -= factor * body_(row, j);
    }
    basis_[row] = col;
  }

  SimplexOptions options_;
  std::size_t m_;
  std::size_t n_;
  std::size_t cols_ = 0;
  std::size_t num_artificials_ = 0;
  std::vector<std::size_t> artificial_rows_;
  Matrix body_;
  std::vector<std::size_t> basis_;
  std::size_t pivots_ = 0;
  std::size_t degenerate_pivots_ = 0;
  std::size_t phase1_pivots_ = 0;
  bool phase1_ = false;
};

}  // namespace

lp::SolveResult solve_simplex(const lp::LinearProgram& problem,
                              const SimplexOptions& options) {
  problem.validate();
  obs::ProfileSpan profile_root("simplex");
  Stopwatch timer;
  Tableau tableau(problem, options);
  lp::SolveResult result;
  result.status = tableau.run(problem);
  result.iterations = tableau.pivots();
  if (result.status == lp::SolveStatus::kOptimal) {
    result.x = tableau.primal();
    result.y = tableau.dual();
    result.objective = problem.objective(result.x);
  }
  result.wall_seconds = timer.seconds();

  obs::TraceSink* sink = options.trace != nullptr ? options.trace
                                                  : obs::default_trace_sink();
  if (sink != nullptr) {
    obs::SolveSummary summary;
    summary.solver = "simplex";
    summary.status = lp::to_string(result.status);
    summary.iterations = result.iterations;
    summary.objective = result.objective;
    summary.wall_seconds = result.wall_seconds;
    obs::Event event = summary.to_event();
    event.with("pivots", tableau.pivots())
        .with("degenerate_pivots", tableau.degenerate_pivots())
        .with("phase1_pivots", tableau.phase1_pivots());
    sink->emit(event);
    sink->flush();
  }
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("simplex.solves").add();
  registry.counter("simplex.pivots").add(tableau.pivots());
  registry.counter("simplex.degenerate_pivots")
      .add(tableau.degenerate_pivots());
  if (result.optimal()) registry.counter("simplex.optimal").add();
  return result;
}

}  // namespace memlp::solvers
