// perfbench — the benchmark driver behind perfbench/run.py.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process, one solve at a time (a closed loop). Set-up builds the
// workload's problem set (generator → to_mps → read_mps → presolve →
// simplex reference) a few times; the timed phase then solves the set in
// order through engine::solve, cycling until --seconds have passed and at
// least one full pass is done. Between its solves it rebuilds the set again
// for a fixed share of its time, so setup_s is a median taken over the
// whole run. With --trace 1 it skips those rebuilds (setup_s is not among
// the per-layer rows), and one more pass runs with the obs::Profiler and
// obs::CostLedger installed; the per-layer rows are derived from them.
// Every solve is checked against the simplex reference, and every
// deterministic output (status, iterations, objective, x, hardware
// counters) must repeat bit for bit across the passes. Set-up and the
// bounded per-iteration cost are timed in process CPU seconds, solves also
// in wall seconds.
//
// Output: one human-readable line per metric, then the last line, a JSON
// object {"correct", "attempted", "failed", "metrics"} holding every metric
// computed. Exit 0 on success, 1 when a check failed (the JSON line still
// prints, with "correct": false), 2 on usage or environment errors.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/par.hpp"
#include "common/provenance.hpp"
#include "common/stopwatch.hpp"
#include "engine/registry.hpp"
#include "lp/mps.hpp"
#include "lp/presolve.hpp"
#include "metrics.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/profiler.hpp"
#include "perf/hardware_model.hpp"
#include "workloads.hpp"

namespace {

using memlp::Stopwatch;
using perfbench::Workload;
namespace engine = memlp::engine;
namespace lp = memlp::lp;
namespace obs = memlp::obs;
namespace perf = memlp::perf;

/// Upper limit of the pinned pool size. Two, not all four vCPUs of the
/// shared host it was tuned on: run next to each other, 4-thread xbar-paper
/// runs spread ±9 % in host ms per iteration and 2-thread runs ±3 %, since
/// every parallel region waits for its slowest thread.
constexpr std::size_t kMaxThreads = 2;
/// How many times set-up builds the whole problem set before the first
/// timed solve.
constexpr std::size_t kSetupPassesBefore = 3;
/// Share of the timed phase spent rebuilding the problem set between
/// solves. setup_s is the median over all set-up passes of the run: a host
/// that slows down for a second or two then moves a few of its samples, not
/// all of them. Traced runs skip these rebuilds to stay short.
constexpr double kSetupShare = 0.2;
/// Ledger-vs-estimate agreement required by the accounting cross-check.
constexpr double kAccountingTolerance = 1e-9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return have_workload && argc % 2 == 1 && args.seconds >= 0.0;
}

/// Every computed metric, printed as a human line as it is added and
/// collected for the closing JSON line.
class MetricSheet {
 public:
  /// `samples` > 0 marks a median or percentile and is printed beside it.
  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    rows_[name] = {value, unit};
    std::printf("metric %-28s %18.9g %-8s", name.c_str(), value, unit.c_str());
    if (samples > 0) std::printf(" (n=%zu)", samples);
    std::printf("\n");
  }

  void put(const std::string& name, perfbench::Median m,
           const std::string& unit) {
    put(name, m.value, unit, m.samples);
  }

  [[nodiscard]] std::string json(bool correct, std::size_t attempted,
                                 std::size_t failed) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    const char* sep = "";
    for (const auto& [name, row] : rows_) {
      out << sep << "\"" << name << "\": {\"value\": ";
      // Non-finite values in Python's JSON spelling; run.py rejects them.
      if (std::isnan(row.value))
        out << "NaN";
      else if (std::isinf(row.value))
        out << (row.value > 0 ? "Infinity" : "-Infinity");
      else
        out << row.value;
      out << ", \"unit\": \"" << row.unit << "\"}";
      sep = ", ";
    }
    out << "}}";
    return out.str();
  }

 private:
  struct Row {
    double value;
    std::string unit;
  };
  std::map<std::string, Row> rows_;
};

/// Collects check failures; any one makes the run incorrect.
class Verdict {
 public:
  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
    ok_ = false;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// One problem of the set, as built by set-up.
struct Problem {
  std::uint64_t seed = 0;
  lp::LinearProgram input;  ///< presolved MPS round trip: what solves see.
  double reference = 0.0;   ///< simplex objective of `input`.
  std::vector<std::uint64_t> fingerprint;  ///< of the set-up outputs.
};

/// Layer timings of one set-up pass over the whole problem set, in process
/// CPU seconds.
struct SetupPass {
  double generate_s = 0.0;
  double mps_write_s = 0.0;
  double mps_read_s = 0.0;
  double presolve_s = 0.0;
  double simplex_s = 0.0;
  double total_s = 0.0;
  std::size_t mps_bytes = 0;
};

struct Solve {
  double wall_s = 0.0;
  double cpu_s = 0.0;          ///< CPU time of all the process's threads.
  std::size_t iterations = 0;  ///< PDIP iterations including retries.
  std::string miss;            ///< perfbench::miss_kind; "" = passed.
  double violation = 0.0;      ///< primal_violation of the returned x.
  double rel_error = 1.0;      ///< as counted (1 for a failed solve).
  engine::SolveReport report;
  std::vector<std::uint64_t> fingerprint;

  [[nodiscard]] bool passed() const { return miss.empty(); }
};

void add_bits(std::vector<std::uint64_t>& out, double value) {
  out.push_back(std::bit_cast<std::uint64_t>(value));
}

/// Every deterministic output of a solve, as exact bit patterns.
std::vector<std::uint64_t> fingerprint(const engine::SolveReport& report) {
  const lp::SolveResult& r = report.result;
  const memlp::core::XbarSolveStats& s = report.stats;
  const memlp::core::BackendStats& b = s.backend;
  std::vector<std::uint64_t> f = {
      static_cast<std::uint64_t>(r.status), r.iterations,
      b.xbar.full_programs, b.xbar.cells_written, b.xbar.write_pulses,
      b.xbar.mvm_ops, b.xbar.solve_ops, b.xbar.failed_settles,
      b.amps.element_ops, b.amps.vector_ops, b.noc.transfers,
      b.noc.value_hops, b.noc.global_settles, b.noc.tile_settles,
      b.noc.failed_global_settles, b.settle_cache.full_factorizations,
      b.settle_cache.incremental_updates, b.settle_cache.prepare_hits,
      b.settle_cache.fallbacks, b.settle_cache.solves, b.num_tiles,
      b.zero_tiles, s.programming.xbar.cells_written,
      s.programming.xbar.write_pulses, s.amps.element_ops, s.amps.vector_ops,
      s.iterations, s.attempts, s.system_dim};
  add_bits(f, r.objective);
  for (const double v : r.x) add_bits(f, v);
  return f;
}

/// Worst primal violation of x: max over rows of (A·x − b)ᵢ ÷ (1 + |bᵢ|)
/// and over columns of −xⱼ; +inf for a wrong-sized or non-finite x.
double primal_violation(const lp::LinearProgram& problem,
                        const memlp::Vec& x) {
  if (x.size() != problem.num_variables()) return INFINITY;
  double worst = 0.0;
  for (const double v : x) {
    if (!std::isfinite(v)) return INFINITY;
    worst = std::max(worst, -v);
  }
  const memlp::Vec ax = problem.a.multiply(x);
  for (std::size_t i = 0; i < ax.size(); ++i)
    worst = std::max(worst,
                     (ax[i] - problem.b[i]) / (1.0 + std::abs(problem.b[i])));
  return worst;
}

/// CPU seconds consumed so far by every thread of the process.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process CPU seconds since construction or reset(). The bounded timings
/// use it rather than wall time: on a shared VM, time the hypervisor takes
/// the vCPUs away (steal) moved wall-time medians by ±20 % between runs of
/// the same work, and CPU time by ±6 %.
class CpuClock {
 public:
  CpuClock() : start_s_(process_cpu_s()) {}
  void reset() { start_s_ = process_cpu_s(); }
  [[nodiscard]] double seconds() const { return process_cpu_s() - start_s_; }

 private:
  double start_s_;
};

Solve run_solve(const Workload& workload, const Problem& problem) {
  Solve solve;
  const double cpu_start_s = process_cpu_s();
  Stopwatch clock;
  solve.report = engine::solve(problem.input, workload.request);
  solve.wall_s = clock.seconds();
  solve.cpu_s = process_cpu_s() - cpu_start_s;
  const lp::SolveResult& r = solve.report.result;
  solve.iterations = solve.report.has_hardware_stats
                         ? solve.report.stats.iterations
                         : r.iterations;
  const double error = lp::relative_error(r.objective, problem.reference);
  solve.violation = primal_violation(problem.input, r.x);
  solve.miss = perfbench::miss_kind(lp::to_string(r.status), solve.violation,
                                    error, workload.tolerance);
  solve.rel_error = perfbench::counted_rel_error(solve.passed(), error);
  solve.fingerprint = fingerprint(solve.report);
  return solve;
}

/// Builds the problem set once, timing each layer of the pipeline. Without
/// `keep_inputs` only the fingerprints are kept: a rebuild between timed
/// solves then holds one problem at a time, and the process's peak resident
/// set does not depend on when the rebuilds happen to run.
std::vector<Problem> build_problems(const Workload& workload,
                                    std::uint64_t seed, SetupPass& pass,
                                    bool keep_inputs) {
  std::vector<Problem> problems;
  CpuClock total;
  engine::SolveRequest simplex;
  simplex.solver = "simplex";
  for (std::size_t k = 0; k < workload.problems; ++k) {
    Problem p;
    p.seed = seed + k;
    CpuClock clock;
    const lp::LinearProgram generated = workload.generate(p.seed);
    pass.generate_s += clock.seconds();
    clock.reset();
    const std::string mps = lp::to_mps(generated);
    pass.mps_write_s += clock.seconds();
    pass.mps_bytes += mps.size();
    clock.reset();
    std::istringstream in(mps);
    const lp::MpsModel model = lp::read_mps(in, "generated.mps");
    pass.mps_read_s += clock.seconds();
    clock.reset();
    lp::PresolveResult presolved = lp::presolve(model.problem);
    pass.presolve_s += clock.seconds();
    if (presolved.outcome != lp::PresolveResult::Outcome::kReduced)
      throw std::runtime_error("presolve did not reduce problem seed " +
                               std::to_string(p.seed));
    p.input = std::move(presolved.reduced);
    clock.reset();
    const engine::SolveReport reference = engine::solve(p.input, simplex);
    pass.simplex_s += clock.seconds();
    if (!reference.result.optimal())
      throw std::runtime_error("simplex reference is " +
                               lp::to_string(reference.result.status) +
                               " on problem seed " + std::to_string(p.seed));
    p.reference = reference.result.objective;
    p.fingerprint = fingerprint(reference);
    p.fingerprint.push_back(mps.size());
    p.fingerprint.push_back(p.input.a.nnz());
    if (!keep_inputs) p.input = lp::LinearProgram{};
    problems.push_back(std::move(p));
  }
  pass.total_s = total.seconds();
  return problems;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Self-time rows: profiler call path → per-layer metric. Paths not listed
/// land in obs.unmapped_s, so the rows always sum to the traced wall.
struct PathRow {
  const char* path;
  const char* metric;
};
constexpr PathRow kSelfTimeRows[] = {
    {"xbar", "core.solver_s"},
    {"pdip", "core.solver_s"},
    {"ls", "core.solver_s"},
    {"xbar/iterations", "core.iterations_s"},
    {"xbar/iterations/settle", "crossbar.settle_s"},
    {"xbar/iterations/mvm", "crossbar.mvm_s"},
    {"xbar/iterations/write_state", "crossbar.write_state_s"},
    {"xbar/write_state", "crossbar.write_state_s"},
    {"xbar/programming", "crossbar.programming_s"},
    {"pdip/factorize", "linalg.factorize_s"},
    {"pdip/newton", "linalg.newton_s"},
    {"ls/iterations", "core.ls_iterations_s"},
    {"ls/programming", "core.ls_programming_s"},
};

struct Totals {
  double wall_s = 0.0;
  std::size_t iterations = 0;
};

Totals sum(const std::vector<Solve>& solves) {
  Totals t;
  for (const Solve& s : solves) {
    t.wall_s += s.wall_s;
    t.iterations += s.iterations;
  }
  return t;
}

/// Per-layer counters summed over one pass of the problem set.
void put_counters(MetricSheet& sheet, const std::vector<Solve>& pass) {
  memlp::core::BackendStats b;
  std::size_t attempts = 0;
  for (const Solve& s : pass) {
    if (s.report.has_hardware_stats) {
      b += s.report.stats.backend;
      attempts += s.report.stats.attempts;
    } else {
      attempts += 1;
    }
  }
  const bool analog = !pass.empty() && pass.front().report.has_hardware_stats;
  const auto& cache = b.settle_cache;
  const std::uint64_t prepares =
      cache.full_factorizations + cache.incremental_updates +
      cache.prepare_hits;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  sheet.put("crossbar.settles", count(b.xbar.solve_ops), "count");
  sheet.put("crossbar.mvms", count(b.xbar.mvm_ops), "count");
  sheet.put("crossbar.cells_written", count(b.xbar.cells_written), "count");
  sheet.put("crossbar.failed_settles", count(b.xbar.failed_settles), "count");
  sheet.put("memristor.write_pulses", count(b.xbar.write_pulses), "count");
  sheet.put("linalg.full_factorizations", count(cache.full_factorizations),
            "count");
  sheet.put("linalg.cache_hit_ratio",
            prepares == 0 ? 0.0 : count(cache.prepare_hits) / count(prepares),
            "ratio");
  sheet.put("linalg.cache_fallbacks", count(cache.fallbacks), "count");
  sheet.put("noc.tiles", analog ? count(b.num_tiles) : 0.0, "count");
  sheet.put("noc.zero_tiles", count(b.zero_tiles), "count");
  sheet.put("noc.global_settles", count(b.noc.global_settles), "count");
  sheet.put("noc.tile_settles", count(b.noc.tile_settles), "count");
  sheet.put("noc.value_hops", count(b.noc.value_hops), "count");
  sheet.put("noc.failed_global_settles", count(b.noc.failed_global_settles),
            "count");
  sheet.put("core.attempts", count(attempts), "count");
}

/// A profiler path's median in ms (0 when the path never ran).
double p50_ms(const obs::CallPathStats* stats) {
  return stats == nullptr ? 0.0 : stats->p50_s * 1e3;
}

/// A profiler path's p95 in ms, or 0 when the sample-count rule forbids it
/// (fewer than kMinTailSamples samples beyond it).
double p95_ms(const obs::CallPathStats* stats) {
  if (stats == nullptr || !perfbench::tail_reportable(stats->count, 0.95))
    return 0.0;
  return stats->p95_s * 1e3;
}

/// The traced pass: per-layer self times, kernel rates, trace overhead and
/// the ledger-vs-estimate accounting cross-check.
void put_traced(MetricSheet& sheet, Verdict& verdict,
                const std::vector<Solve>& untraced,
                const std::vector<Solve>& traced, const obs::Profiler& profiler,
                const obs::CostLedger& ledger) {
  std::map<std::string, double> totals;
  std::map<std::string, obs::CallPathStats> by_path;
  for (const obs::CallPathStats& s : profiler.aggregate()) {
    totals[s.path] = s.total_s;
    by_path[s.path] = s;
  }
  std::map<std::string, double> rows;
  for (const PathRow& row : kSelfTimeRows) rows[row.metric] = 0.0;
  rows["obs.unmapped_s"] = 0.0;
  double root_total = 0.0;
  for (const auto& [path, self] : perfbench::self_times(totals)) {
    if (path.find('/') == std::string::npos) root_total += totals[path];
    const char* metric = "obs.unmapped_s";
    for (const PathRow& row : kSelfTimeRows)
      if (path == row.path) metric = row.metric;
    rows[metric] += self;
  }
  const double traced_wall_s = sum(traced).wall_s;
  rows["engine.dispatch_s"] = traced_wall_s - root_total;
  for (const auto& [metric, seconds] : rows) sheet.put(metric, seconds, "s");

  const auto find = [&](const char* path) -> const obs::CallPathStats* {
    const auto it = by_path.find(path);
    return it == by_path.end() ? nullptr : &it->second;
  };
  const obs::CallPathStats* settle = find("xbar/iterations/settle");
  const obs::CallPathStats* factorize = find("pdip/factorize");
  const std::size_t settles = settle ? settle->count : 0;
  const std::size_t factorizations = factorize ? factorize->count : 0;
  sheet.put("crossbar.settle_ms.p50", p50_ms(settle), "ms", settles);
  sheet.put("crossbar.settle_ms.p95", p95_ms(settle), "ms", settles);
  sheet.put("linalg.factorize_ms.p50", p50_ms(factorize), "ms",
            factorizations);
  sheet.put("linalg.factorize_ms.p95", p95_ms(factorize), "ms",
            factorizations);

  const obs::CostTree tree = ledger.tree();
  const auto flops = [&](const char* path) -> std::uint64_t {
    const auto it = tree.find(path);
    return it == tree.end() ? 0 : it->second.flops;
  };
  sheet.put("crossbar.settle_flops",
            static_cast<double>(flops("xbar/iterations/settle")), "flop");
  sheet.put("crossbar.settle_gflops",
            perfbench::gflops(flops("xbar/iterations/settle"),
                              rows["crossbar.settle_s"]),
            "GFLOP/s");
  sheet.put("linalg.factorize_gflops",
            perfbench::gflops(flops("pdip/factorize"),
                              rows["linalg.factorize_s"]),
            "GFLOP/s");

  const double untraced_wall_s_s = sum(untraced).wall_s;
  sheet.put("obs.traced_solve_s", traced_wall_s, "s");
  sheet.put("obs.trace_overhead",
            untraced_wall_s_s > 0.0 ? traced_wall_s / untraced_wall_s_s : 0.0, "ratio");
  double self_sum = 0.0;
  for (const auto& [metric, seconds] : rows) self_sum += seconds;
  std::printf("accounting: self times sum to %.6f s of %.6f s traced solve "
              "wall (untraced %.6f s)\n",
              self_sum, traced_wall_s, untraced_wall_s_s);

  if (traced.empty() || !traced.front().report.has_hardware_stats) return;
  const perf::HardwareModel model;
  perf::CostEstimate expected;
  for (const Solve& s : traced) {
    expected += model.estimate(s.report.stats);
    expected += model.estimate_programming(s.report.stats);
  }
  const perf::CostEstimate priced = model.price_counters(ledger.total());
  const double diff = std::max(
      perfbench::relative_difference(priced.latency_s, expected.latency_s),
      perfbench::relative_difference(priced.energy_j, expected.energy_j));
  std::printf("accounting: ledger %.9g J / %.9g s vs estimate + programming "
              "%.9g J / %.9g s (rel diff %.3e)\n",
              priced.energy_j, priced.latency_s, expected.energy_j,
              expected.latency_s, diff);
  if (!(diff <= kAccountingTolerance))
    verdict.fail("cost ledger disagrees with HardwareModel::estimate + "
                 "estimate_programming");
}

/// Deterministic results over the problem set: accuracy, failure rate,
/// iterations and the modelled hardware cost.
void put_problem_set(MetricSheet& sheet, const std::vector<Solve>& pass) {
  std::vector<double> iterations, rel_error, latency, energy, program;
  std::size_t failed = 0;
  const perf::HardwareModel model;
  for (const Solve& s : pass) {
    iterations.push_back(static_cast<double>(s.iterations));
    rel_error.push_back(s.rel_error);
    if (!s.passed()) ++failed;
    if (!s.report.has_hardware_stats) continue;
    const perf::CostEstimate run = model.estimate(s.report.stats);
    latency.push_back(run.latency_s * 1e3);
    energy.push_back(run.energy_j * 1e3);
    program.push_back(model.estimate_programming(s.report.stats).energy_j *
                      1e3);
  }
  sheet.put("iterations.p50", perfbench::median(iterations), "count");
  sheet.put("rel_error.p50", perfbench::median(rel_error), "fraction");
  sheet.put("failed_frac", perfbench::failed_fraction(failed, pass.size()),
            "fraction");
  sheet.put("hw_latency_ms.p50", perfbench::median(latency), "ms");
  sheet.put("hw_energy_mj.p50", perfbench::median(energy), "mJ");
  sheet.put("hw_program_mj.p50", perfbench::median(program), "mJ");
}

void print_solve(const char* phase, const Problem& p, const Solve& s) {
  std::printf("solve %-8s seed=%llu status=%s iterations=%zu wall_s=%.4f "
              "cpu_s=%.4f objective=%.10g reference=%.10g rel_error=%.3e "
              "violation=%.3e %s%s\n",
              phase, static_cast<unsigned long long>(p.seed),
              lp::to_string(s.report.result.status).c_str(), s.iterations,
              s.wall_s, s.cpu_s, s.report.result.objective, p.reference,
              s.rel_error, s.violation, s.passed() ? "pass" : "MISS ",
              s.miss.c_str());
}

int run(const Args& args, const Workload& workload, std::size_t threads) {
  Stopwatch process;
  MetricSheet sheet;
  Verdict verdict;

  std::printf("provenance git_sha=%s build_type=%s compiler=\"%s\" nproc=%zu "
              "pool_threads=%zu workload=%s seeds=%llu..%llu problems=%zu "
              "seconds=%g trace=%d\n",
              memlp::git_sha().c_str(), memlp::build_type().c_str(),
              memlp::compiler_id().c_str(), available_cpus(), threads,
              workload.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seed + workload.problems -
                                              1),
              workload.problems, args.seconds, args.trace ? 1 : 0);

  // Set-up: pool and registry start-up once, then the problem set built
  // kSetupPassesBefore times. Every later pass must rebuild the first one's
  // problems exactly.
  CpuClock startup_clock;
  (void)engine::SolverRegistry::global();
  memlp::par::parallel_for(threads, [](std::size_t) {});
  const double startup_s = startup_clock.seconds();
  std::vector<Problem> problems;
  std::vector<SetupPass> passes;
  const auto setup_pass = [&] {
    SetupPass pass;
    std::vector<Problem> built =
        build_problems(workload, args.seed, pass, problems.empty());
    passes.push_back(pass);
    if (problems.empty()) {
      problems = std::move(built);
      return pass.total_s;
    }
    for (std::size_t k = 0; k < built.size(); ++k)
      if (built[k].fingerprint != problems[k].fingerprint)
        verdict.fail("set-up pass " + std::to_string(passes.size() - 1) +
                     " rebuilt problem seed " + std::to_string(built[k].seed) +
                     " differently");
    return pass.total_s;
  };
  for (std::size_t r = 0; r < kSetupPassesBefore; ++r) setup_pass();
  std::printf("setup startup_s=%.6f passes=%zu first_solve_at_s=%.6f\n",
              startup_s, passes.size(), process.seconds());

  // Timed phase, Profiler and CostLedger off. attempted and failed are
  // taken over the problem set, like failed_frac: repeats are held to the
  // first solve by the fingerprint instead.
  std::vector<Solve> first;
  std::vector<double> walls, iteration_ms, iteration_cpu_ms;
  std::size_t failed = 0, solved = 0;
  double rebuild_s = 0.0;
  Stopwatch timed;
  for (std::size_t i = 0;
       i < problems.size() || timed.seconds() < args.seconds; ++i) {
    while (!args.trace && rebuild_s < kSetupShare * timed.seconds())
      rebuild_s += setup_pass();
    const std::size_t k = i % problems.size();
    Solve s = run_solve(workload, problems[k]);
    if (s.passed()) ++solved;
    walls.push_back(s.wall_s);
    iteration_ms.push_back(perfbench::iteration_ms(s.wall_s, s.iterations));
    iteration_cpu_ms.push_back(perfbench::iteration_ms(s.cpu_s, s.iterations));
    print_solve(i < problems.size() ? "timed" : "repeat", problems[k], s);
    if (i < problems.size()) {
      if (!s.passed()) {
        ++failed;
        if (!workload.declares(s.miss))
          verdict.fail("problem seed " + std::to_string(problems[k].seed) +
                       " missed the check (" + s.miss + "), a kind " +
                       workload.name + " does not declare");
      }
      first.push_back(std::move(s));
    } else if (s.fingerprint != first[k].fingerprint) {
      verdict.fail("repeat solve of problem seed " +
                   std::to_string(problems[k].seed) + " differs from its "
                   "first solve");
    }
  }
  double wall_sum_s = 0.0;
  for (const double w : walls) wall_sum_s += w;
  const auto pass_median = [&](double SetupPass::*field) {
    std::vector<double> v;
    for (const SetupPass& p : passes) v.push_back(p.*field);
    return perfbench::median(v);
  };
  const perfbench::Median setup_pass_s = pass_median(&SetupPass::total_s);
  const double setup_s = startup_s + setup_pass_s.value;
  std::printf("setup pass_s.p50=%.6f (n=%zu) rebuild_s=%.6f of %.6f s timed\n",
              setup_pass_s.value, setup_pass_s.samples, rebuild_s,
              timed.seconds());

  sheet.put("iteration_ms.p50", perfbench::median(iteration_ms), "ms");
  sheet.put("iteration_cpu_ms.p50", perfbench::median(iteration_cpu_ms), "ms");
  sheet.put("solve_s.p50", perfbench::median(walls), "s");
  sheet.put("solves_per_s", static_cast<double>(solved) / wall_sum_s, "1/s");
  sheet.put("setup_s", setup_s, "s", setup_pass_s.samples);
  put_problem_set(sheet, first);

  if (args.trace) {
    sheet.put("lp.generate_s", pass_median(&SetupPass::generate_s), "s");
    sheet.put("lp.mps_write_s", pass_median(&SetupPass::mps_write_s), "s");
    sheet.put("lp.mps_read_s", pass_median(&SetupPass::mps_read_s), "s");
    sheet.put("lp.presolve_s", pass_median(&SetupPass::presolve_s), "s");
    sheet.put("solvers.simplex_s", pass_median(&SetupPass::simplex_s), "s");
    sheet.put("lp.mps_bytes", static_cast<double>(passes.front().mps_bytes),
              "bytes");
    const Totals untraced = sum(first);
    sheet.put("core.iteration_ms",
              perfbench::iteration_ms(untraced.wall_s, untraced.iterations),
              "ms");
    put_counters(sheet, first);

    obs::Profiler profiler;
    obs::CostLedger ledger;
    obs::Profiler::set_active(&profiler);
    obs::CostLedger::set_active(&ledger);
    std::vector<Solve> traced;
    for (std::size_t k = 0; k < problems.size(); ++k) {
      traced.push_back(run_solve(workload, problems[k]));
      print_solve("traced", problems[k], traced.back());
      if (traced.back().fingerprint != first[k].fingerprint)
        verdict.fail("traced solve of problem seed " +
                     std::to_string(problems[k].seed) +
                     " differs from its untraced solve");
    }
    obs::CostLedger::set_active(nullptr);
    obs::Profiler::set_active(nullptr);
    put_traced(sheet, verdict, first, traced, profiler, ledger);
  }

  sheet.put("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("%s\n",
              sheet.json(verdict.ok(), problems.size(), failed).c_str());
  return verdict.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const Workload* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& name : perfbench::workload_names())
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::string build = memlp::build_type();
  if (!memlp::build_flags().empty() ||
      (build != "Release" && build != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a '%s' build (flags '%s'); "
                 "build Release or RelWithDebInfo without sanitizers\n",
                 build.c_str(), memlp::build_flags().c_str());
    return 2;
  }
  // Pin the pool before anything resolves its size: the environment's
  // MEMLP_THREADS must not change what is measured.
  const std::size_t threads = std::min(kMaxThreads, available_cpus());
  setenv("MEMLP_THREADS", std::to_string(threads).c_str(), 1);
  if (memlp::par::default_threads() != threads) {
    std::fprintf(stderr, "perfbench: pool size did not pin to %zu\n",
                 threads);
    return 2;
  }
  try {
    return run(args, *workload, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
