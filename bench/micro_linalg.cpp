// Micro-benchmarks of the linear-algebra substrate (google-benchmark):
// the O(N³) LU factorization and O(N²) GEMV that bound the software PDIP's
// per-iteration cost (§3.5).
#include <benchmark/benchmark.h>

#include "artifact.hpp"

#include <cstdint>

#include "common/rng.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "linalg/sparse.hpp"

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

// Normal-equations assembly S = A·Θ·Aᵀ + diag(w/y), sparse CSR
// row-intersection kernel vs the dense m²n triple product it replaces
// (both as used by the software PDIP, m constraints over n = m/3
// variables).
void BM_SchurAssemblyCsr(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto density_pct = static_cast<int>(state.range(1));
  const std::size_t n = m / 3;
  Rng rng(6);
  const CsrMatrix a =
      CsrMatrix::from_dense(random_sparse(m, n, density_pct, rng));
  Vec theta(n, 1.0), shift(m, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(csr_schur_dense(a, theta, shift));
  state.SetComplexityN(static_cast<std::int64_t>(m));
}
BENCHMARK(BM_SchurAssemblyCsr)
    ->ArgsProduct({{96, 192, 384}, {5, 25, 100}})
    ->Complexity();

void BM_SchurAssemblyDense(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto density_pct = static_cast<int>(state.range(1));
  const std::size_t n = m / 3;
  Rng rng(6);
  const Matrix a = random_sparse(m, n, density_pct, rng);
  Vec theta(n, 1.0), shift(m, 1.0);
  for (auto _ : state) {
    Matrix s(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k <= i; ++k) {
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j)
          sum += a(i, j) * theta[j] * a(k, j);
        s(i, k) = sum;
        s(k, i) = sum;
      }
      s(i, i) += shift[i];
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(static_cast<std::int64_t>(m));
}
BENCHMARK(BM_SchurAssemblyDense)
    ->ArgsProduct({{96, 192, 384}, {5, 25, 100}})
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

