// LP workload generators.
//
// random_feasible / random_infeasible reproduce the paper's experimental
// setup (§4.2): "The number of constraints varies from 256 to 1024
// exponentially while the number of variables is one third of the number of
// constraints. 100 randomly generated feasible tests and 100 randomly
// generated infeasible tests…". Construction guarantees the advertised
// property:
//   * feasible + bounded: an interior point x* > 0 is drawn first and
//     b = A·x* + margin with margin > 0, so the region has interior; every
//     column of A is nudged to a positive column sum, so y = t·1 with large
//     t is dual-feasible and the primal optimum is finite;
//   * infeasible: a hidden pair of contradictory rows (u·x ≤ β and
//     u·x ≥ 2β for a positive vector u) is embedded among random rows.
//
// The domain generators (max-flow routing, production scheduling,
// transportation) build the application LPs the paper's introduction
// motivates; they back the examples/ binaries.
//
// The structured family (multi_commodity_flow / block_diagonal / banded)
// emits realistic sparsity patterns CSR-natively — no dense intermediate —
// so problems with thousands of constraints stay cheap to generate and feed
// the CSR residual / sharded-crossbar paths (§3.5).
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "lp/problem.hpp"

namespace memlp::lp {

/// Parameters for the random generators.
struct GeneratorOptions {
  std::size_t constraints = 32;
  /// 0 = the paper's ratio (constraints / 3, at least 1).
  std::size_t variables = 0;
  /// Magnitude scale of A's entries.
  double coefficient_scale = 1.0;
  /// Fraction of negative entries in A (exercises the negative-coefficient
  /// elimination path; 0 = all-non-negative problems).
  double negative_fraction = 0.3;
  /// Fraction of structurally zero entries (LPs are typically sparse).
  double sparsity = 0.0;

  [[nodiscard]] std::size_t effective_variables() const noexcept {
    if (variables != 0) return variables;
    return constraints / 3 == 0 ? 1 : constraints / 3;
  }
};

/// Generates a feasible, bounded LP (see construction note above).
LinearProgram random_feasible(const GeneratorOptions& options, Rng& rng);

/// Generates an infeasible LP.
LinearProgram random_infeasible(const GeneratorOptions& options, Rng& rng);

/// Max-flow routing LP on a random layered directed graph:
/// variables are edge flows, objective is total flow leaving the source,
/// constraints are edge capacities and (two-sided) node conservation.
/// Conservation rows contain ±1 entries, exercising negative coefficients.
LinearProgram max_flow_routing(std::size_t layers, std::size_t width,
                               Rng& rng);

/// Production scheduling: maximize profit over products subject to
/// non-negative resource-capacity rows (an all-non-negative LP).
LinearProgram production_scheduling(std::size_t products,
                                    std::size_t resources, Rng& rng);

/// Transportation problem (suppliers x consumers, cost minimization recast
/// as canonical max form; demand rows carry negative coefficients).
LinearProgram transportation(std::size_t suppliers, std::size_t consumers,
                             Rng& rng);

/// Diet problem (Stigler): minimize food cost subject to nutrient minimums
/// (≥ rows become negative-coefficient ≤ rows) and per-food portion caps.
LinearProgram diet(std::size_t foods, std::size_t nutrients, Rng& rng);

/// Assignment problem (LP relaxation): maximize total match value with at
/// most one task per worker and at least one worker per task
/// (workers >= tasks keeps it feasible).
LinearProgram assignment(std::size_t workers, std::size_t tasks, Rng& rng);

/// Multi-commodity flow on a random layered graph (CSR-native): one flow
/// variable per (commodity, edge), shared edge-capacity rows coupling the
/// commodities, and two-sided per-commodity conservation rows. Feasible
/// (zero flow) and bounded (capacities cap every variable); density shrinks
/// as ~1/(commodities·width).
LinearProgram multi_commodity_flow(std::size_t commodities,
                                   std::size_t layers, std::size_t width,
                                   Rng& rng);

/// Block-diagonal LP (CSR-native): `blocks` independent dense blocks of
/// block_rows x block_cols on the diagonal, coupled by nothing — density is
/// exactly 1/blocks. Feasible and bounded by the random_feasible recipe
/// (interior point + positive column sums).
LinearProgram block_diagonal(std::size_t blocks, std::size_t block_rows,
                             std::size_t block_cols, Rng& rng);

/// Banded LP (CSR-native): m rows over n = max(1, m/3) variables with
/// nonzeros confined to a band of half-width `bandwidth` around the scaled
/// diagonal. Feasible and bounded by the random_feasible recipe.
LinearProgram banded(std::size_t constraints, std::size_t bandwidth,
                     Rng& rng);

}  // namespace memlp::lp
