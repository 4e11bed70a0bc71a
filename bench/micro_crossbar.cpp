// Micro-benchmarks of the crossbar simulator (google-benchmark): programming
// cost, analog MVM, analog solve (a settle of the monolithic crossbar, the
// one-tile noc::TiledCrossbarMatrix), and the per-iteration diagonal update —
// simulator wall time, not hardware estimates (those come from
// perf::HardwareModel in the figure harnesses).
#include <benchmark/benchmark.h>

#include "artifact.hpp"

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "crossbar/crossbar.hpp"
#include "noc/tiled.hpp"

namespace {

using namespace memlp;

Matrix random_nonneg(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(0.0, 1.0);
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

xbar::CrossbarConfig paper_config() {
  xbar::CrossbarConfig config;
  config.variation = mem::VariationModel::uniform(0.10);
  return config;
}

void BM_Program(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_nonneg(n, rng);
  xbar::Crossbar crossbar(paper_config(), Rng(2));
  for (auto _ : state) crossbar.program(a);
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Program)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_AnalogMvm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix a = random_nonneg(n, rng);
  xbar::Crossbar crossbar(paper_config(), Rng(4));
  crossbar.program(a);
  Vec x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(crossbar.multiply(x));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AnalogMvm)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_AnalogSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Matrix a = random_nonneg(n, rng);
  Vec b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    // Re-program so every solve refactors (as the PDIP iteration does).
    noc::TiledCrossbarMatrix crossbar(paper_config(), Rng(6));
    crossbar.program(a);
    benchmark::DoNotOptimize(crossbar.solve(b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AnalogSolve)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_DiagonalUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Matrix a = random_nonneg(n, rng);
  xbar::Crossbar crossbar(paper_config(), Rng(8));
  crossbar.program(a, 2.0 * a.max_abs());
  // One batch of n diagonal rewrites per iteration, as the solvers issue.
  std::vector<xbar::CellUpdate> diagonal(n);
  double value = 0.5;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) diagonal[i] = {i, i, value};
    crossbar.update_cells(diagonal);
    value = value == 0.5 ? 0.75 : 0.5;  // force level changes
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DiagonalUpdate)->RangeMultiplier(2)->Range(16, 256)->Complexity();

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
  memlp::bench::BenchRun run("micro_crossbar",
                             "micro — micro_crossbar",
                             "crossbar simulator programming/MVM/solve timings",
                             memlp::bench::SweepConfig::from_env());
  ArtifactReporter reporter(run);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return run.finish();
}

