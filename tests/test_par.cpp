// Tests for the memlp::par threading layer and its determinism contract:
// bit-identical results and identical aggregate stats at every thread count,
// and trace/metrics infrastructure that survives concurrent solves.
//
// TSan note: every EXPECT/ASSERT here runs on the main test thread, after
// the parallel region has completed — worker threads only touch their own
// task state.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/par.hpp"
#include "common/rng.hpp"
#include "core/kkt.hpp"
#include "core/negfree.hpp"
#include "core/xbar_pdip.hpp"
#include "engine/batch.hpp"
#include "linalg/lu.hpp"
#include "linalg/ops.hpp"
#include "lp/generator.hpp"
#include "lp/mps.hpp"
#include "noc/tiled.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace memlp {
namespace {

// default_threads() resolves MEMLP_THREADS exactly once per process; pin it
// to 4 before anything in the library can resolve it, so the `threads = 0`
// paths in this binary genuinely run multi-threaded.
const bool kThreadsEnvPinned = [] {
  ::setenv("MEMLP_THREADS", "4", 1);
  return true;
}();

// --- the pool itself --------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ASSERT_TRUE(kThreadsEnvPinned);
  EXPECT_EQ(par::default_threads(), 4u);
  constexpr std::size_t kCount = 10000;
  std::vector<int> visits(kCount, 0);  // index i written only by its task
  par::parallel_for(kCount, [&](std::size_t i) { visits[i] += 1; }, 4);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i], 1);
}

TEST(ParallelForRanges, DisjointRangesRespectingGrain) {
  constexpr std::size_t kCount = 1003;
  constexpr std::size_t kGrain = 64;
  std::vector<int> visits(kCount, 0);
  std::atomic<bool> grain_ok{true};
  par::parallel_for_ranges(
      kCount, kGrain,
      [&](std::size_t begin, std::size_t end) {
        if (end - begin > kGrain || begin >= end) grain_ok = false;
        for (std::size_t i = begin; i < end; ++i) visits[i] += 1;
      },
      4);
  EXPECT_TRUE(grain_ok.load());
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i], 1);
}

TEST(ParallelFor, ZeroCountIsANoop) {
  bool called = false;
  par::parallel_for(0, [&](std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      par::parallel_for(
          256,
          [](std::size_t i) {
            if (i == 97) throw std::runtime_error("task failure");
          },
          4),
      std::runtime_error);
  // The pool must stay usable after a failed region.
  std::vector<int> visits(64, 0);
  par::parallel_for(64, [&](std::size_t i) { visits[i] += 1; }, 4);
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<int> inner_visits(kOuter * kInner, 0);
  std::vector<unsigned char> saw_region_flag(kOuter, 0);
  par::parallel_for(
      kOuter,
      [&](std::size_t outer) {
        saw_region_flag[outer] = par::in_parallel_region() ? 1 : 0;
        // Nested call: must execute inline on this thread, not deadlock.
        par::parallel_for(
            kInner,
            [&](std::size_t inner) {
              inner_visits[outer * kInner + inner] += 1;
            },
            4);
      },
      4);
  for (std::size_t k = 0; k < kOuter; ++k) EXPECT_EQ(saw_region_flag[k], 1);
  for (int v : inner_visits) EXPECT_EQ(v, 1);
  EXPECT_FALSE(par::in_parallel_region());
}

// --- tiled crossbar: bit-identical results, identical stats -----------------

noc::TiledConfig noisy_tiled(std::size_t threads) {
  noc::TiledConfig config;
  config.tile_dim = 5;  // 13x9 -> 3x2 grid of uneven tiles
  config.xbar.variation = mem::VariationModel::uniform(0.08);
  config.xbar.io_bits = 8;
  config.threads = threads;
  return config;
}

Matrix random_nonneg(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(0.0, 2.0);
  return m;
}

void expect_stats_equal(const noc::TiledCrossbarMatrix& a,
                        const noc::TiledCrossbarMatrix& b) {
  EXPECT_EQ(a.noc_stats().transfers, b.noc_stats().transfers);
  EXPECT_EQ(a.noc_stats().value_hops, b.noc_stats().value_hops);
  EXPECT_EQ(a.noc_stats().global_settles, b.noc_stats().global_settles);
  EXPECT_EQ(a.noc_stats().tile_settles, b.noc_stats().tile_settles);
  const xbar::CrossbarStats xa = a.crossbar_stats();
  const xbar::CrossbarStats xb = b.crossbar_stats();
  EXPECT_EQ(xa.full_programs, xb.full_programs);
  EXPECT_EQ(xa.cells_written, xb.cells_written);
  EXPECT_EQ(xa.write_pulses, xb.write_pulses);
  EXPECT_EQ(xa.mvm_ops, xb.mvm_ops);
  EXPECT_EQ(xa.solve_ops, xb.solve_ops);
  EXPECT_EQ(xa.pulse_histogram, xb.pulse_histogram);
  EXPECT_EQ(a.amplifier_stats().element_ops, b.amplifier_stats().element_ops);
  EXPECT_EQ(a.amplifier_stats().vector_ops, b.amplifier_stats().vector_ops);
}

TEST(TiledPar, ProgramAndMultiplyBitIdenticalAcrossThreadCounts) {
  Rng data_rng(11);
  const Matrix a = random_nonneg(13, 9, data_rng);
  noc::TiledCrossbarMatrix serial(noisy_tiled(1), Rng(99));
  noc::TiledCrossbarMatrix parallel(noisy_tiled(4), Rng(99));
  serial.program(a);
  parallel.program(a);

  // Same variation draws in every tile => identical effective arrays.
  const Matrix effective_serial = serial.assemble_effective();
  const Matrix effective_parallel = parallel.assemble_effective();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_EQ(effective_serial(i, j), effective_parallel(i, j));

  Vec x(9);
  for (double& v : x) v = data_rng.uniform(-1.0, 1.0);
  const Vec y1 = serial.multiply(x);
  const Vec y4 = parallel.multiply(x);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y4[i]);

  // A 6×7 patch of cell writes spanning several tiles, then another readout.
  Rng update_rng(12);
  const Matrix patch = random_nonneg(6, 7, update_rng);
  std::vector<xbar::CellUpdate> cells;
  for (std::size_t i = 0; i < patch.rows(); ++i)
    for (std::size_t j = 0; j < patch.cols(); ++j)
      cells.push_back({3 + i, 1 + j, patch(i, j)});
  serial.update_cells(cells);
  parallel.update_cells(cells);
  const Vec u1 = serial.multiply(x);
  const Vec u4 = parallel.multiply(x);
  for (std::size_t i = 0; i < u1.size(); ++i) EXPECT_EQ(u1[i], u4[i]);

  expect_stats_equal(serial, parallel);
}

TEST(TiledPar, BlockJacobiBitIdenticalAcrossThreadCounts) {
  // Diagonally dominant system so the sweep converges.
  constexpr std::size_t kDim = 12;
  Rng data_rng(21);
  Matrix a = random_nonneg(kDim, kDim, data_rng);
  for (std::size_t i = 0; i < kDim; ++i) a(i, i) += 4.0 * kDim;
  Vec b(kDim);
  for (double& v : b) v = data_rng.uniform(-1.0, 1.0);

  noc::TiledConfig config1 = noisy_tiled(1);
  noc::TiledConfig config4 = noisy_tiled(4);
  config1.tile_dim = config4.tile_dim = 4;  // 3x3 grid, square diagonals
  // Keep process variation but lift the 8-bit I/O boundary: the sweep's
  // per-tile settles run through the DAC/ADC, and quantized iterates stall
  // above the default tolerance (this test is about thread invariance).
  config1.xbar.io_bits = config4.xbar.io_bits = 0;
  noc::TiledCrossbarMatrix serial(config1, Rng(77));
  noc::TiledCrossbarMatrix parallel(config4, Rng(77));
  serial.program(a);
  parallel.program(a);

  const auto r1 = serial.solve_block_jacobi(b);
  const auto r4 = parallel.solve_block_jacobi(b);
  EXPECT_TRUE(r1.converged);
  EXPECT_EQ(r1.converged, r4.converged);
  EXPECT_EQ(r1.sweeps, r4.sweeps);
  EXPECT_EQ(r1.residual_inf, r4.residual_inf);
  ASSERT_EQ(r1.x.size(), r4.x.size());
  for (std::size_t i = 0; i < r1.x.size(); ++i) EXPECT_EQ(r1.x[i], r4.x[i]);
  expect_stats_equal(serial, parallel);
}

// --- batched solves ---------------------------------------------------------

std::vector<lp::LinearProgram> batch_problems(std::size_t count) {
  std::vector<lp::LinearProgram> problems;
  lp::GeneratorOptions gen;
  gen.constraints = 8;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(1000 + i);
    problems.push_back(lp::random_feasible(gen, rng));
  }
  return problems;
}

core::XbarPdipOptions batch_base_options() {
  core::XbarPdipOptions base;
  base.hardware.crossbar.variation = mem::VariationModel::uniform(0.05);
  base.seed = 4242;
  return base;
}

/// One crossbar item per problem; problem i solves with seed base.seed + i,
/// so every solve draws its own hardware variation and noise.
std::vector<engine::BatchItem> batch_items(
    const std::vector<lp::LinearProgram>& problems,
    const core::XbarPdipOptions& base) {
  std::vector<engine::BatchItem> items(problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    items[i].problem = &problems[i];
    items[i].request.solver = "xbar";
    items[i].request.xbar = base;
    items[i].request.xbar->seed = base.seed + i;
  }
  return items;
}

TEST(BatchPar, MatchesSerialSolveLoopBitwise) {
  const auto problems = batch_problems(8);
  const core::XbarPdipOptions base = batch_base_options();

  const auto batched =
      engine::solve_batch(batch_items(problems, base), /*threads=*/4);
  ASSERT_EQ(batched.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    core::XbarPdipOptions single = base;
    single.seed = base.seed + i;  // the items' seed stride
    const auto serial = core::solve_xbar_pdip(problems[i], single);
    EXPECT_EQ(serial.result.status, batched[i].result.status);
    EXPECT_EQ(serial.result.iterations, batched[i].result.iterations);
    EXPECT_EQ(serial.result.objective, batched[i].result.objective);
    ASSERT_EQ(serial.result.x.size(), batched[i].result.x.size());
    for (std::size_t j = 0; j < serial.result.x.size(); ++j)
      EXPECT_EQ(serial.result.x[j], batched[i].result.x[j]);
    // Aggregate hardware counters must not depend on scheduling either.
    EXPECT_EQ(serial.stats.backend.xbar.cells_written,
              batched[i].stats.backend.xbar.cells_written);
    EXPECT_EQ(serial.stats.backend.xbar.write_pulses,
              batched[i].stats.backend.xbar.write_pulses);
    EXPECT_EQ(serial.stats.iterations, batched[i].stats.iterations);
    EXPECT_EQ(serial.stats.attempts, batched[i].stats.attempts);
  }
}

TEST(BatchPar, BitIdenticalAcrossThreadCounts) {
  const auto problems = batch_problems(8);
  const auto items = batch_items(problems, batch_base_options());

  const auto r1 = engine::solve_batch(items, /*threads=*/1);
  const auto r4 = engine::solve_batch(items, /*threads=*/4);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].result.status, r4[i].result.status);
    EXPECT_EQ(r1[i].result.objective, r4[i].result.objective);
    for (std::size_t j = 0; j < r1[i].result.x.size(); ++j)
      EXPECT_EQ(r1[i].result.x[j], r4[i].result.x[j]);
    EXPECT_EQ(r1[i].stats.backend.xbar.cells_written,
              r4[i].stats.backend.xbar.cells_written);
    EXPECT_EQ(r1[i].stats.backend.noc.value_hops,
              r4[i].stats.backend.noc.value_hops);
  }
}

TEST(BatchPar, SharedJsonlSinkDeliversWholeLines) {
  const std::string path = testing::TempDir() + "/test_par_trace.jsonl";
  std::remove(path.c_str());
  {
    obs::JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    core::XbarPdipOptions base = batch_base_options();
    base.pdip.trace = &sink;
    const auto problems = batch_problems(8);
    const auto outcomes =
        engine::solve_batch(batch_items(problems, base), /*threads=*/4);
    ASSERT_EQ(outcomes.size(), problems.size());
    sink.flush();
  }
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::set<long long> seqs;
  std::size_t lines = 0;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), file) != nullptr) {
    const std::string line(buffer);
    ++lines;
    // Whole, untorn JSONL records: one object per line, no interleaving.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    ASSERT_GE(line.size(), 3u);
    EXPECT_EQ(line[line.size() - 2], '}') << line;
    EXPECT_NE(line.find("\"type\":\""), std::string::npos) << line;
    const auto seq_pos = line.find("\"seq\":");
    ASSERT_NE(seq_pos, std::string::npos) << line;
    seqs.insert(std::atoll(line.c_str() + seq_pos + 6));
  }
  std::fclose(file);
  std::remove(path.c_str());
  ASSERT_GT(lines, 0u);
  // Unique, gap-free emission indices prove no lost or duplicated records.
  EXPECT_EQ(seqs.size(), lines);
  EXPECT_EQ(*seqs.begin(), 0);
  EXPECT_EQ(*seqs.rbegin(), static_cast<long long>(lines) - 1);
}

TEST(BatchPar, MetricsCountersExactUnderConcurrency) {
  auto& registry = obs::MetricsRegistry::global();
  const auto problems_before = registry.counter("batch.problems").value();
  const auto solves_before = registry.counter("xbar.solves").value();
  const auto problems = batch_problems(8);
  const auto outcomes = engine::solve_batch(
      batch_items(problems, batch_base_options()), /*threads=*/4);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_EQ(registry.counter("batch.problems").value() - problems_before, 8u);
  EXPECT_EQ(registry.counter("xbar.solves").value() - solves_before, 8u);
}

/// Bit patterns of a vector, so ±0 and NaN payloads compare exactly.
std::vector<std::uint64_t> bits(const Vec& v) {
  std::vector<std::uint64_t> out;
  for (double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

TEST(BatchPar, SharedDenseCsrProblemIsSafeToReadFromEveryWorker) {
  // One problem shared by four concurrent pdip items. Its A is dense
  // (density >= 0.25) and built CSR-only, as read_mps builds it, so every
  // worker's residual MVMs read the same LinearProgram at once: nothing in
  // it may be filled in lazily.
  lp::GeneratorOptions gen;
  gen.constraints = 24;
  Rng rng(2024);
  std::istringstream mps(lp::to_mps(lp::random_feasible(gen, rng)));
  const lp::LinearProgram problem = lp::read_mps(mps).problem;
  ASSERT_GE(problem.a.density(), 0.25);

  std::vector<engine::BatchItem> items(4);
  for (auto& item : items) {
    item.problem = &problem;
    item.request.solver = "pdip";
  }
  const auto reports = engine::solve_batch(items, /*threads=*/4);
  ASSERT_EQ(reports.size(), 4u);
  ASSERT_EQ(reports[0].result.status, lp::SolveStatus::kOptimal);
  for (const auto& report : reports) {
    EXPECT_EQ(report.result.status, reports[0].result.status);
    EXPECT_EQ(report.result.iterations, reports[0].result.iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.result.objective),
              std::bit_cast<std::uint64_t>(reports[0].result.objective));
    EXPECT_EQ(bits(report.result.x), bits(reports[0].result.x));
    EXPECT_EQ(bits(report.result.y), bits(reports[0].result.y));
    EXPECT_EQ(bits(report.result.w), bits(reports[0].result.w));
    EXPECT_EQ(bits(report.result.z), bits(reports[0].result.z));
  }
}

// --- parallel LU ------------------------------------------------------------

/// Factors `a` with the elimination's regions on one thread: a region
/// nested inside another runs inline on its caller (par.hpp).
LuFactorization factor_on_one_thread(const Matrix& a) {
  std::optional<LuFactorization> lu;
  par::parallel_for(
      2, [&](std::size_t i) { if (i == 0) lu.emplace(a); }, 2);
  return std::move(*lu);
}

TEST(LuPar, ParallelEliminationIsRepeatableAndCorrect) {
  // Both large enough that the elimination runs above the parallel cutoff:
  // a dense matrix, and the structured crossbar settle array (negative-free
  // KKT, ~4 % nonzero) whose zeros the kernel skips.
  constexpr std::size_t kDim = 200;
  Rng rng(31);
  Matrix dense(kDim, kDim);
  for (std::size_t i = 0; i < kDim; ++i)
    for (std::size_t j = 0; j < kDim; ++j) dense(i, j) = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < kDim; ++i) dense(i, i) += 10.0;

  lp::GeneratorOptions gen;
  gen.constraints = 64;
  const auto problem = lp::random_feasible(gen, rng);
  Matrix settle = core::NegativeFreeSystem(
                      core::assemble_kkt(problem, core::PdipState::ones(
                                                      problem.num_variables(),
                                                      problem.num_constraints())))
                      .matrix();
  for (std::size_t i = 0; i < settle.rows(); ++i)
    for (double& v : settle.row(i))
      if (v != 0.0) v *= 1.0 + rng.uniform(-0.05, 0.05);

  for (const Matrix* a : {&dense, &settle}) {
    const std::size_t n = a->rows();
    Vec b(n);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const LuFactorization first(*a);
    const LuFactorization second(*a);
    const LuFactorization serial = factor_on_one_thread(*a);
    ASSERT_FALSE(first.singular()) << "n=" << n;
    const Vec x1 = first.solve(b);
    const Vec x2 = second.solve(b);
    const Vec x_serial = serial.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x1[i], x2[i]) << "n=" << n << " row " << i;
      EXPECT_EQ(x1[i], x_serial[i]) << "n=" << n << " row " << i;
    }
    EXPECT_EQ(first.determinant(), second.determinant());
    EXPECT_EQ(first.determinant(), serial.determinant());

    const Vec residual = sub(gemv(*a, x1), b);
    EXPECT_LT(norm_inf(residual), 1e-9) << "n=" << n;
  }
}

}  // namespace
}  // namespace memlp
