// Micro-benchmarks of the linear-algebra substrate (google-benchmark):
// the O(N³) LU factorization and O(N²) GEMV that bound the software PDIP's
// per-iteration cost (§3.5).
#include <benchmark/benchmark.h>

#include "artifact.hpp"

#include <cstdint>

#include "common/rng.hpp"
#include "core/kkt.hpp"
#include "core/negfree.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "linalg/sparse.hpp"
#include "lp/generator.hpp"

namespace {

using namespace memlp;

Matrix random_matrix(std::size_t n, Rng& rng, bool boost_diagonal) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  if (boost_diagonal)
    for (std::size_t i = 0; i < n; ++i)
      a(i, i) += static_cast<double>(n) + 1.0;
  return a;
}

/// Rectangular m x n matrix with the given fill fraction (percent).
Matrix random_sparse(std::size_t m, std::size_t n, int density_pct,
                     Rng& rng) {
  Matrix a(m, n);
  const double density = static_cast<double>(density_pct) / 100.0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng.uniform() < density) a(i, j) = rng.normal();
  return a;
}

void BM_LuFactorSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n, rng, true);
  Vec b(n);
  for (double& v : b) v = rng.normal();
  for (auto _ : state) {
    const LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LuFactorSolve)->RangeMultiplier(2)->Range(32, 512)->Complexity();

/// The array the xbar settle factors: the negative-free augmentation of the
/// Eq. (12) KKT of a paper-style LP (m constraints, m/3 variables) at the
/// all-ones iterate, every nonzero scaled by a ±5 % device variation. About
/// 4 % of it is nonzero, unlike the dense-random matrix above. `plan` gets
/// the xbar solver's pivot plan for it.
Matrix xbar_settle_array(std::size_t m, Rng& rng, PivotPlan* plan = nullptr) {
  lp::GeneratorOptions gen;
  gen.constraints = m;
  const auto problem = lp::random_feasible(gen, rng);
  const auto state = core::PdipState::ones(problem.num_variables(),
                                           problem.num_constraints());
  const core::NegativeFreeSystem negfree(core::assemble_kkt(problem, state));
  if (plan != nullptr)
    *plan = core::newton_pivot_plan(
        {problem.num_variables(), problem.num_constraints()}, negfree);
  Matrix a = negfree.matrix();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (double& v : a.row(i))
      if (v != 0.0) v *= 1.0 + rng.uniform(-0.05, 0.05);
  return a;
}

void BM_LuFactorKkt(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = xbar_settle_array(m, rng);
  for (auto _ : state) {
    const LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.singular());
  }
  state.counters["N"] = static_cast<double>(a.rows());
  state.SetItemsProcessed(state.iterations());
}
// Wall time: the trailing update runs on the pool, off the main thread.
BENCHMARK(BM_LuFactorKkt)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same array factored with the xbar settle's pivot plan: static pivots
// on its two-entry rows, the dense kernel on the front left over.
void BM_LuFactorKktPlanned(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  PivotPlan plan;
  const Matrix a = xbar_settle_array(m, rng, &plan);
  std::size_t front = 0;
  for (auto _ : state) {
    const LuFactorization lu(a, plan);
    benchmark::DoNotOptimize(lu.singular());
    front = lu.front_dim();
  }
  state.counters["N"] = static_cast<double>(a.rows());
  state.counters["front"] = static_cast<double>(front);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LuFactorKktPlanned)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = random_matrix(n, rng, false);
  Vec x(n);
  for (double& v : x) v = rng.normal();
  for (auto _ : state) benchmark::DoNotOptimize(gemv(a, x));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Gemv)->RangeMultiplier(2)->Range(32, 1024)->Complexity();

// CSR SpMV against the dense GEMV above: at LP-typical fill fractions the
// O(nnz) walk beats the O(N²) sweep by roughly the density factor.
void BM_CsrSpmv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto density_pct = static_cast<int>(state.range(1));
  Rng rng(2);
  const CsrMatrix a =
      CsrMatrix::from_dense(random_sparse(n, n, density_pct, rng));
  Vec x(n);
  for (double& v : x) v = rng.normal();
  for (auto _ : state) benchmark::DoNotOptimize(a.multiply(x));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CsrSpmv)
    ->ArgsProduct({{128, 256, 512, 1024}, {5, 25, 100}})
    ->Complexity();

void BM_GaussSeidelSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix a = random_matrix(n, rng, true);
  Vec b(n);
  for (double& v : b) v = rng.normal();
  IterativeOptions options;
  options.max_sweeps = 1;
  for (auto _ : state) benchmark::DoNotOptimize(gauss_seidel(a, b, options));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GaussSeidelSweep)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();

}  // namespace


namespace {

/// Console reporter that also records every timing into the bench artifact
/// (per-iteration real time, ns — measured, so memlp_report applies loose
/// thresholds).
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  explicit ArtifactReporter(memlp::bench::BenchRun& run) : run_(run) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      run_.metric(run.benchmark_name(), run.GetAdjustedRealTime(),
                  {"ns", true, /*measured=*/true});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  memlp::bench::BenchRun& run_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  memlp::bench::BenchRun run("micro_linalg",
                             "micro — micro_linalg",
                             "LU factorization and GEMV kernel timings",
                             memlp::bench::SweepConfig::from_env());
  ArtifactReporter reporter(run);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return run.finish();
}

