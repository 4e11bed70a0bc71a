#include "lp/generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "linalg/ops.hpp"
#include "linalg/sparse.hpp"

namespace memlp::lp {
namespace {

/// Draws the constraint matrix with the requested sign mix and sparsity.
Matrix draw_matrix(const GeneratorOptions& options, Rng& rng) {
  const std::size_t m = options.constraints;
  const std::size_t n = options.effective_variables();
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (options.sparsity > 0.0 && rng.uniform() < options.sparsity) continue;
      const double magnitude =
          rng.uniform(0.1, 1.0) * options.coefficient_scale;
      const bool negative = rng.uniform() < options.negative_fraction;
      a(i, j) = negative ? -magnitude : magnitude;
    }
  return a;
}

/// Ensures every column sum is comfortably positive so y = t·1 is
/// dual-feasible for large t (bounded primal), and no column is all-zero.
void ensure_positive_column_sums(Matrix& a, double scale, Rng& rng) {
  const double floor = 0.2 * scale;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += a(i, j);
    while (sum < floor) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(a.rows()) - 1));
      const double boost = rng.uniform(0.5, 1.0) * scale;
      sum -= a(i, j);
      a(i, j) = std::abs(a(i, j)) + boost;
      sum += a(i, j);
    }
  }
}

/// Wraps a CSR constraint matrix in a feasible, bounded LP the same way
/// random_feasible does: interior point first, then b = A·x* + margin and a
/// positive objective. Callers must have arranged positive column sums.
LinearProgram feasible_from_csr(CsrMatrix a, Rng& rng) {
  LinearProgram lp;
  const std::size_t n = a.cols();
  Vec interior(n);
  for (double& v : interior) v = rng.uniform(0.5, 2.0);
  lp.b = a.multiply(interior);
  for (double& v : lp.b) v += rng.uniform(0.5, 2.0);
  lp.c.resize(n);
  for (double& v : lp.c) v = rng.uniform(0.1, 1.0);
  lp.a = std::move(a);
  lp.validate();
  return lp;
}

/// Edge of the layered flow graphs: node 0 is the source, 1..layers·width
/// the internal nodes, layers·width+1 the sink.
struct Edge {
  std::size_t from, to;
  double capacity;
};

/// Source -> layer 1 (width nodes) -> ... -> layer L -> sink, complete
/// bipartite between consecutive layers. RNG call order matters: this is the
/// exact sequence max_flow_routing has always drawn.
std::vector<Edge> layered_edges(std::size_t layers, std::size_t width,
                                Rng& rng) {
  std::vector<Edge> edges;
  const auto node_id = [&](std::size_t layer, std::size_t k) {
    return 1 + layer * width + k;
  };
  for (std::size_t k = 0; k < width; ++k)
    edges.push_back({0, node_id(0, k), rng.uniform(1.0, 4.0)});
  for (std::size_t layer = 0; layer + 1 < layers; ++layer)
    for (std::size_t from = 0; from < width; ++from)
      for (std::size_t to = 0; to < width; ++to)
        edges.push_back({node_id(layer, from), node_id(layer + 1, to),
                         rng.uniform(0.5, 2.0)});
  for (std::size_t k = 0; k < width; ++k)
    edges.push_back({node_id(layers - 1, k), width * layers + 1,
                     rng.uniform(1.0, 4.0)});
  return edges;
}

}  // namespace

LinearProgram random_feasible(const GeneratorOptions& options, Rng& rng) {
  MEMLP_EXPECT(options.constraints >= 1);
  LinearProgram lp;
  Matrix a = draw_matrix(options, rng);
  ensure_positive_column_sums(a, options.coefficient_scale, rng);

  const std::size_t n = a.cols();
  // Interior point first, then right-hand sides with strictly positive slack.
  Vec interior(n);
  for (double& v : interior) v = rng.uniform(0.5, 2.0);
  lp.b = gemv(a, interior);
  for (double& v : lp.b) v += rng.uniform(0.5, 2.0);

  lp.c.resize(n);
  for (double& v : lp.c)
    v = rng.uniform(0.1, 1.0) * options.coefficient_scale;
  lp.a = std::move(a);
  lp.validate();
  return lp;
}

LinearProgram random_infeasible(const GeneratorOptions& options, Rng& rng) {
  MEMLP_EXPECT(options.constraints >= 2);
  LinearProgram lp = random_feasible(options, rng);
  Matrix a = lp.a.to_dense();
  const std::size_t n = a.cols();
  // Overwrite the last two rows with a contradiction: u·x <= beta and
  // u·x >= 2·beta for u > 0, beta > 0 — unsatisfiable for any x >= 0.
  Vec u(n);
  for (double& v : u) v = rng.uniform(0.2, 1.0) * options.coefficient_scale;
  const double beta = rng.uniform(0.5, 2.0);
  const std::size_t r1 = a.rows() - 2;
  const std::size_t r2 = a.rows() - 1;
  for (std::size_t j = 0; j < n; ++j) {
    a(r1, j) = u[j];
    a(r2, j) = -u[j];
  }
  lp.b[r1] = beta;
  lp.b[r2] = -2.0 * beta;
  lp.a = std::move(a);
  return lp;
}

LinearProgram max_flow_routing(std::size_t layers, std::size_t width,
                               Rng& rng) {
  MEMLP_EXPECT(layers >= 1 && width >= 1);
  const std::size_t internal = layers * width;
  const std::vector<Edge> edges = layered_edges(layers, width, rng);

  const std::size_t num_edges = edges.size();
  // Rows: capacity per edge + 2 conservation rows per internal node.
  const std::size_t m = num_edges + 2 * internal;
  LinearProgram lp;
  Matrix a(m, num_edges);
  lp.b.assign(m, 0.0);
  lp.c.assign(num_edges, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    a(e, e) = 1.0;
    lp.b[e] = edges[e].capacity;
    if (edges[e].from == 0) lp.c[e] = 1.0;  // maximize flow out of source
  }
  for (std::size_t v = 1; v <= internal; ++v) {
    const std::size_t out_row = num_edges + 2 * (v - 1);
    const std::size_t in_row = out_row + 1;
    for (std::size_t e = 0; e < num_edges; ++e) {
      double coefficient = 0.0;
      if (edges[e].to == v) coefficient += 1.0;   // inflow
      if (edges[e].from == v) coefficient -= 1.0;  // outflow
      a(out_row, e) = coefficient;    // inflow - outflow <= 0
      a(in_row, e) = -coefficient;    // outflow - inflow <= 0
    }
  }
  lp.a = std::move(a);
  lp.validate();
  return lp;
}

LinearProgram production_scheduling(std::size_t products,
                                    std::size_t resources, Rng& rng) {
  MEMLP_EXPECT(products >= 1 && resources >= 1);
  LinearProgram lp;
  Matrix a(resources, products);
  lp.b.assign(resources, 0.0);
  lp.c.assign(products, 0.0);
  for (std::size_t r = 0; r < resources; ++r) {
    for (std::size_t p = 0; p < products; ++p)
      a(r, p) = rng.uniform(0.1, 2.0);  // units of resource r per product
    lp.b[r] = rng.uniform(5.0, 20.0) * static_cast<double>(products);
  }
  for (std::size_t p = 0; p < products; ++p)
    lp.c[p] = rng.uniform(1.0, 10.0);  // profit per unit
  lp.a = std::move(a);
  lp.validate();
  return lp;
}

LinearProgram transportation(std::size_t suppliers, std::size_t consumers,
                             Rng& rng) {
  MEMLP_EXPECT(suppliers >= 1 && consumers >= 1);
  const std::size_t num_routes = suppliers * consumers;
  LinearProgram lp;
  Matrix a(suppliers + consumers, num_routes);
  lp.b.assign(suppliers + consumers, 0.0);
  lp.c.assign(num_routes, 0.0);
  const auto route = [&](std::size_t s, std::size_t t) {
    return s * consumers + t;
  };
  Vec demand(consumers);
  double total_demand = 0.0;
  for (std::size_t t = 0; t < consumers; ++t) {
    demand[t] = rng.uniform(1.0, 5.0);
    total_demand += demand[t];
  }
  // Supplies sized so total supply exceeds total demand (feasibility).
  for (std::size_t s = 0; s < suppliers; ++s) {
    for (std::size_t t = 0; t < consumers; ++t)
      a(s, route(s, t)) = 1.0;  // sum_t x_st <= supply_s
    lp.b[s] = total_demand / static_cast<double>(suppliers) *
              rng.uniform(1.2, 1.8);
  }
  for (std::size_t t = 0; t < consumers; ++t) {
    for (std::size_t s = 0; s < suppliers; ++s)
      a(suppliers + t, route(s, t)) = -1.0;  // sum_s x_st >= demand_t
    lp.b[suppliers + t] = -demand[t];
  }
  // Cost minimization as canonical max: maximize -cost.
  for (std::size_t s = 0; s < suppliers; ++s)
    for (std::size_t t = 0; t < consumers; ++t)
      lp.c[route(s, t)] = -rng.uniform(1.0, 10.0);
  lp.a = std::move(a);
  lp.validate();
  return lp;
}

LinearProgram diet(std::size_t foods, std::size_t nutrients, Rng& rng) {
  MEMLP_EXPECT(foods >= 1 && nutrients >= 1);
  // Variables: portions per food. Rows: one nutrient-minimum row per
  // nutrient (−N·x ≤ −requirement) and one portion cap per food.
  LinearProgram lp;
  Matrix a(nutrients + foods, foods);
  lp.b.assign(nutrients + foods, 0.0);
  lp.c.assign(foods, 0.0);
  const double cap = 10.0;
  Matrix content(nutrients, foods);  // nutrient per portion
  for (std::size_t k = 0; k < nutrients; ++k)
    for (std::size_t f = 0; f < foods; ++f)
      content(k, f) = rng.uniform(0.0, 1.0);
  for (std::size_t k = 0; k < nutrients; ++k) {
    double max_attainable = 0.0;
    for (std::size_t f = 0; f < foods; ++f) {
      a(k, f) = -content(k, f);
      max_attainable += content(k, f) * cap;
    }
    // Requirement comfortably attainable under the caps: feasible by
    // construction.
    lp.b[k] = -rng.uniform(0.1, 0.5) * max_attainable;
  }
  for (std::size_t f = 0; f < foods; ++f) {
    a(nutrients + f, f) = 1.0;
    lp.b[nutrients + f] = cap;
  }
  // Cost minimization as canonical max.
  for (std::size_t f = 0; f < foods; ++f) lp.c[f] = -rng.uniform(0.5, 3.0);
  lp.a = std::move(a);
  lp.validate();
  return lp;
}

LinearProgram assignment(std::size_t workers, std::size_t tasks, Rng& rng) {
  MEMLP_EXPECT(workers >= tasks && tasks >= 1);
  const std::size_t pairs = workers * tasks;
  LinearProgram lp;
  Matrix a(workers + tasks, pairs);
  lp.b.assign(workers + tasks, 0.0);
  lp.c.assign(pairs, 0.0);
  const auto pair_index = [&](std::size_t w, std::size_t t) {
    return w * tasks + t;
  };
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t t = 0; t < tasks; ++t)
      a(w, pair_index(w, t)) = 1.0;  // sum_t x_wt <= 1
    lp.b[w] = 1.0;
  }
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t w = 0; w < workers; ++w)
      a(workers + t, pair_index(w, t)) = -1.0;  // sum_w x_wt >= 1
    lp.b[workers + t] = -1.0;
  }
  for (std::size_t w = 0; w < workers; ++w)
    for (std::size_t t = 0; t < tasks; ++t)
      lp.c[pair_index(w, t)] = rng.uniform(0.5, 5.0);  // match value
  lp.a = std::move(a);
  lp.validate();
  return lp;
}

LinearProgram multi_commodity_flow(std::size_t commodities,
                                   std::size_t layers, std::size_t width,
                                   Rng& rng) {
  MEMLP_EXPECT(commodities >= 1 && layers >= 1 && width >= 1);
  const std::size_t internal = layers * width;
  const std::vector<Edge> edges = layered_edges(layers, width, rng);
  const std::size_t num_edges = edges.size();
  const std::size_t n = commodities * num_edges;
  // Rows: one shared capacity row per edge (couples the commodities), then
  // two conservation rows per (commodity, internal node).
  const std::size_t m = num_edges + 2 * internal * commodities;
  const auto var = [&](std::size_t k, std::size_t e) {
    return k * num_edges + e;
  };
  std::vector<CsrMatrix::Triplet> triplets;
  triplets.reserve(n + 4 * internal * commodities * (width + 1));
  LinearProgram lp;
  lp.b.assign(m, 0.0);
  lp.c.assign(n, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    for (std::size_t k = 0; k < commodities; ++k)
      triplets.push_back({e, var(k, e), 1.0});  // sum_k x_ke <= cap_e
    lp.b[e] = edges[e].capacity;
    if (edges[e].from == 0)
      for (std::size_t k = 0; k < commodities; ++k)
        lp.c[var(k, e)] = 1.0;  // maximize total flow out of the source
  }
  for (std::size_t k = 0; k < commodities; ++k)
    for (std::size_t v = 1; v <= internal; ++v) {
      const std::size_t out_row =
          num_edges + 2 * (k * internal + (v - 1));
      const std::size_t in_row = out_row + 1;
      for (std::size_t e = 0; e < num_edges; ++e) {
        double coefficient = 0.0;
        if (edges[e].to == v) coefficient += 1.0;
        if (edges[e].from == v) coefficient -= 1.0;
        if (coefficient == 0.0) continue;
        triplets.push_back({out_row, var(k, e), coefficient});
        triplets.push_back({in_row, var(k, e), -coefficient});
      }
    }
  lp.a = CsrMatrix::from_triplets(m, n, std::move(triplets));
  lp.validate();
  return lp;
}

LinearProgram block_diagonal(std::size_t blocks, std::size_t block_rows,
                             std::size_t block_cols, Rng& rng) {
  MEMLP_EXPECT(blocks >= 1 && block_rows >= 1 && block_cols >= 1);
  const std::size_t m = blocks * block_rows;
  const std::size_t n = blocks * block_cols;
  std::vector<CsrMatrix::Triplet> triplets;
  triplets.reserve(m * block_cols);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    // Dense random block drawn with the random_feasible sign mix; the boost
    // pass stays inside the block so the block-diagonal pattern survives.
    Matrix block(block_rows, block_cols);
    for (std::size_t i = 0; i < block_rows; ++i)
      for (std::size_t j = 0; j < block_cols; ++j) {
        const double magnitude = rng.uniform(0.1, 1.0);
        const bool negative = rng.uniform() < 0.3;
        block(i, j) = negative ? -magnitude : magnitude;
      }
    ensure_positive_column_sums(block, 1.0, rng);
    const std::size_t r0 = blk * block_rows;
    const std::size_t c0 = blk * block_cols;
    for (std::size_t i = 0; i < block_rows; ++i)
      for (std::size_t j = 0; j < block_cols; ++j)
        if (block(i, j) != 0.0)
          triplets.push_back({r0 + i, c0 + j, block(i, j)});
  }
  return feasible_from_csr(CsrMatrix::from_triplets(m, n, std::move(triplets)),
                           rng);
}

LinearProgram banded(std::size_t constraints, std::size_t bandwidth,
                     Rng& rng) {
  MEMLP_EXPECT(constraints >= 1);
  const std::size_t m = constraints;
  const std::size_t n = std::max<std::size_t>(1, m / 3);
  std::vector<CsrMatrix::Triplet> triplets;
  Vec sums(n, 0.0);
  // Last row touching each column; boosting there keeps the band intact.
  std::vector<std::size_t> anchor(n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t center = i * n / m;
    const std::size_t lo = center > bandwidth ? center - bandwidth : 0;
    const std::size_t hi = std::min(n - 1, center + bandwidth);
    for (std::size_t j = lo; j <= hi; ++j) {
      const double magnitude = rng.uniform(0.1, 1.0);
      const bool negative = rng.uniform() < 0.3;
      const double value = negative ? -magnitude : magnitude;
      triplets.push_back({i, j, value});
      sums[j] += value;
      anchor[j] = i;
    }
  }
  // Sparse analogue of ensure_positive_column_sums: from_triplets sums
  // duplicates, so the corrective entry folds into the anchor cell.
  for (std::size_t j = 0; j < n; ++j)
    if (sums[j] < 0.2)
      triplets.push_back({anchor[j], j, 0.2 - sums[j] + rng.uniform(0.5, 1.0)});
  return feasible_from_csr(CsrMatrix::from_triplets(m, n, std::move(triplets)),
                           rng);
}

}  // namespace memlp::lp
