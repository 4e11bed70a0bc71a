// memlp_solve — command-line LP solver over MPS problem files.
//
//   memlp_solve [options] <problem.mps | ->
//
//   --solver <name>                 any solver registered in the
//                                   memlp::engine registry (default xbar;
//                                   built-ins: simplex, pdip, xbar, ls —
//                                   a bad name lists what is registered)
//   --variation <fraction>          process-variation level (default 0.10)
//   --seed <n>                      hardware seed (default 42)
//   --tile-dim <n>                  force the NoC with this tile size
//   --trace <path>                  structured trace (JSONL; *.csv → CSV,
//                                   *.chrome.json → Chrome trace events,
//                                   "-" → JSONL on stderr)
//   --convergence                   print the per-iteration convergence table
//   --profile                       print the phase breakdown table
//                                   (obs::Profiler call-path aggregate)
//   --cost                          print the phase×component cost breakdown
//                                   (obs::CostLedger attribution priced by
//                                   perf::HardwareModel; implies profiling)
//   --chrome-trace <path>           write the profiled solve's span timeline
//                                   as Chrome trace-event JSON, with
//                                   cost-ledger counter tracks (implies
//                                   profiling; open in chrome://tracing or
//                                   https://ui.perfetto.dev)
//   --metrics-out <path>            write a Prometheus text snapshot of the
//                                   metrics registry after the solve (also
//                                   honoured via MEMLP_METRICS_OUT; render
//                                   with tools/memlp_top)
//   --quiet                         print only the objective value
//
// Reads an MPS problem (fixed or free format, RANGES/BOUNDS) from a file, or
// from stdin with "-", solves it, prints the status, the objective in the
// file's own sense (MINIMIZE by default), the solution vector, the host wall
// time, and — for the crossbar solvers — the hardware operation record with
// its modelled latency/energy headline (iterative phase plus one-off
// programming, together the --cost TOTAL). Exits 0 only when the solve
// reached a verified optimum (2 on usage/parse errors).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "engine/registry.hpp"
#include "lp/mps.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "perf/cost_tree.hpp"
#include "perf/hardware_model.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: memlp_solve [--solver name] "
               "[--variation f] [--seed n] [--tile-dim n] "
               "[--max-iterations n] [--trace path] "
               "[--convergence] [--profile] [--cost] [--chrome-trace path] "
               "[--metrics-out path] [--quiet] <problem.mps | ->\n");
}

/// Comma-joined names of every registered solver (for the bad-name path).
std::string registered_solvers() {
  std::string joined;
  for (const std::string& name :
       memlp::engine::SolverRegistry::global().names()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

void print_result(const memlp::lp::SolveResult& result, bool quiet) {
  if (quiet) {
    // A non-optimal solve has no objective worth printing; report the
    // status on stderr and let the exit code speak.
    if (!result.optimal())
      std::fprintf(stderr, "status: %s\n",
                   memlp::lp::to_string(result.status).c_str());
    else
      std::printf("%.10g\n", result.objective);
    return;
  }
  std::printf("status:     %s\n", memlp::lp::to_string(result.status).c_str());
  if (!result.optimal()) return;
  std::printf("objective:  %.10g\n", result.objective);
  std::printf("x:         ");
  for (double v : result.x) std::printf(" %.6g", v);
  std::printf("\niterations: %zu\n", result.iterations);
  if (result.wall_seconds > 0.0)
    std::printf("wall:       %.6f s\n", result.wall_seconds);
}

void print_convergence(const memlp::obs::MemoryTraceSink& sink) {
  const auto records = sink.events_of("iteration");
  if (records.empty()) {
    std::printf(
        "convergence: no per-iteration records (this solver only emits a "
        "solve summary)\n");
    return;
  }
  std::printf("%5s %4s %12s %12s %12s %12s %9s %9s\n", "it", "att", "mu",
              "primal_inf", "dual_inf", "gap", "alpha_p", "alpha_d");
  for (const auto& event : records) {
    const double attempt = event.number("attempt", 0.0);
    std::printf("%5.0f %4.0f %12.4e %12.4e %12.4e %12.4e",
                event.number("iteration"), attempt, event.number("mu"),
                event.number("primal_inf"), event.number("dual_inf"),
                event.number("gap"));
    for (const char* key : {"alpha_p", "alpha_d"}) {
      if (event.find(key) != nullptr)
        std::printf(" %9.3e", event.number(key));
      else
        std::printf(" %9s", "-");
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string solver = "xbar";
  double variation = 0.10;
  std::uint64_t seed = 42;
  std::size_t tile_dim = 0;
  std::size_t max_iterations = 0;  // 0 = solver default.
  bool quiet = false;
  bool convergence = false;
  bool profile = false;
  bool cost = false;
  std::string chrome_trace_path;
  std::string trace_spec;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--solver") {
      solver = next();
    } else if (arg == "--variation") {
      variation = std::stod(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--tile-dim") {
      tile_dim = std::stoull(next());
    } else if (arg == "--max-iterations") {
      max_iterations = std::stoull(next());
    } else if (arg == "--trace") {
      trace_spec = next();
    } else if (arg == "--convergence") {
      convergence = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--cost") {
      cost = true;
    } else if (arg == "--chrome-trace") {
      chrome_trace_path = next();
    } else if (arg == "--metrics-out") {
      memlp::obs::Telemetry::global().set_metrics_out(next());
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }
  // Resolve the solver name before any work: a typo should fail fast and
  // tell the user what IS registered.
  if (!memlp::engine::SolverRegistry::global().contains(solver)) {
    std::fprintf(stderr, "unknown solver '%s' (registered: %s)\n",
                 solver.c_str(), registered_solvers().c_str());
    usage();
    return 2;
  }

  // Assemble the trace destination: a file/stream sink from --trace, an
  // in-memory sink for --convergence, or a tee when both are requested.
  std::unique_ptr<memlp::obs::TraceSink> file_sink;
  std::unique_ptr<memlp::obs::MemoryTraceSink> memory_sink;
  std::unique_ptr<memlp::obs::TeeTraceSink> tee_sink;
  memlp::obs::TraceSink* sink = nullptr;
  if (!trace_spec.empty()) {
    file_sink = memlp::obs::open_trace_sink(trace_spec);
    if (file_sink == nullptr) {
      std::fprintf(stderr, "cannot open trace destination %s\n",
                   trace_spec.c_str());
      return 2;
    }
    sink = file_sink.get();
  }
  if (convergence) {
    memory_sink = std::make_unique<memlp::obs::MemoryTraceSink>();
    if (sink != nullptr) {
      tee_sink = std::make_unique<memlp::obs::TeeTraceSink>(
          file_sink.get(), memory_sink.get());
      sink = tee_sink.get();
    } else {
      sink = memory_sink.get();
    }
  }

  // The profiler must be active before the solve starts; the Chrome trace
  // export needs the raw span timeline, the table only the aggregate. The
  // cost ledger attributes to the profiler's call paths, so --cost implies
  // profiling (aggregation only).
  std::unique_ptr<memlp::obs::Profiler> profiler;
  if (profile || cost || !chrome_trace_path.empty()) {
    profiler = std::make_unique<memlp::obs::Profiler>(
        /*record_timeline=*/!chrome_trace_path.empty());
    memlp::obs::Profiler::set_active(profiler.get());
  }
  std::unique_ptr<memlp::obs::CostLedger> ledger;
  if (cost || !chrome_trace_path.empty()) {
    ledger = std::make_unique<memlp::obs::CostLedger>(
        /*record_timeline=*/!chrome_trace_path.empty());
    memlp::obs::CostLedger::set_active(ledger.get());
  }

  memlp::lp::MpsModel model;
  try {
    model = path == "-" ? memlp::lp::read_mps(std::cin, "<stdin>")
                        : memlp::lp::read_mps_file(path);
  } catch (const memlp::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const memlp::lp::LinearProgram& problem = model.problem;

  if (!quiet)
    std::printf("problem:    %zu constraints, %zu variables\n",
                problem.num_constraints(), problem.num_variables());

  const auto variation_model =
      variation > 0.0 ? memlp::mem::VariationModel::uniform(variation)
                      : memlp::mem::VariationModel::none();

  // One uniform request; the registry maps the name to the solver and the
  // report carries the hardware record when the solver has one.
  memlp::engine::SolveRequest request;
  request.solver = solver;
  request.pdip.trace = sink;
  if (max_iterations > 0) request.pdip.max_iterations = max_iterations;
  request.seed = seed;
  request.hardware.crossbar.variation = variation_model;
  if (tile_dim > 0) {
    request.hardware.force_noc = true;
    request.hardware.tile_dim = tile_dim;
  }
  const memlp::engine::SolveReport report =
      memlp::engine::solve(problem, request);
  memlp::lp::SolveResult result = report.result;
  // Report the objective in the file's own sense (a MINIMIZE file shows its
  // minimum, not the canonical-max negation).
  if (result.optimal()) result.objective = model.original_objective(result.x);
  print_result(result, quiet);
  if (!quiet && result.optimal() && report.has_hardware_stats) {
    // One modelled headline: the iterative phase (Figs. 6/7) plus the
    // one-off array programming; their energies sum to the --cost TOTAL.
    const memlp::perf::HardwareModel hardware;
    const auto iterative = hardware.estimate(report.stats);
    const auto programming = hardware.estimate_programming(report.stats);
    std::printf("hardware:   %zux%zu system, %zu cells written, "
                "%zu settles, est. iterative %.3f ms / %.3f mJ + "
                "programming %.3f mJ\n",
                report.stats.system_dim, report.stats.system_dim,
                report.stats.backend.xbar.cells_written,
                report.stats.backend.xbar.mvm_ops +
                    report.stats.backend.xbar.solve_ops,
                iterative.latency_s * 1e3, iterative.energy_j * 1e3,
                programming.energy_j * 1e3);
  }

  if (convergence) print_convergence(*memory_sink);
  if (ledger != nullptr) memlp::obs::CostLedger::set_active(nullptr);
  if (cost) {
    const memlp::perf::HardwareModel hardware;
    std::printf("\n%s",
                memlp::perf::cost_table(ledger->tree(), hardware)
                    .str()
                    .c_str());
    const auto& fronts = report.stats.settle_fronts;
    if (report.has_hardware_stats && fronts.factorizations > 0)
      std::printf("settle fronts: %zu planned factorizations of the %zux%zu "
                  "array, front dim p50 %zu / max %zu, %zu deferred pivots\n",
                  fronts.factorizations, report.stats.system_dim,
                  report.stats.system_dim, fronts.front_dim_p50,
                  fronts.front_dim_max, fronts.deferred_pivots);
    if (report.has_hardware_stats) {
      // The ledger's analog counters must reproduce the HardwareStats
      // totals: iterative estimate + one-off programming estimate.
      const auto ledger_cost = hardware.price_counters(ledger->total());
      auto check = hardware.estimate(report.stats);
      check += hardware.estimate_programming(report.stats);
      const double scale = std::max(std::abs(check.energy_j), 1e-300);
      std::printf(
          "cost check: ledger %.6f mJ vs hardware estimate %.6f mJ "
          "(rel diff %.3e)\n",
          ledger_cost.energy_j * 1e3, check.energy_j * 1e3,
          std::abs(ledger_cost.energy_j - check.energy_j) / scale);
    }
  }
  if (profiler != nullptr) {
    memlp::obs::Profiler::set_active(nullptr);
    if (profile) std::printf("\n%s", profiler->table().str().c_str());
    if (!chrome_trace_path.empty()) {
      memlp::obs::ChromeTraceSink trace_sink(chrome_trace_path);
      if (trace_sink.ok()) {
        profiler->export_spans(trace_sink);
        if (ledger != nullptr) {
          const memlp::perf::HardwareModel hardware;
          memlp::perf::export_counter_tracks(*ledger, hardware, trace_sink);
        }
        trace_sink.flush();
        std::printf("chrome trace: %s\n", chrome_trace_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write chrome trace %s\n",
                     chrome_trace_path.c_str());
      }
    }
  }
  if (file_sink != nullptr) file_sink->flush();
  const std::string metrics_path =
      memlp::obs::Telemetry::global().write_metrics_if_configured();
  if (!metrics_path.empty() && !quiet)
    std::printf("metrics: %s\n", metrics_path.c_str());
  return result.optimal() ? 0 : 1;
}
