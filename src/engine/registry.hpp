// memlp::engine — the uniform solver front door.
//
// Every solver in the tree (exact simplex, software PDIP, the Algorithm-1
// crossbar solver, the Algorithm-2 least-squares solver) is registered here
// under its CLI name and driven through one request/report pair:
//
//   lp layer          lp::LinearProgram, lp::SolveResult
//        │
//   engine layer      SolverRegistry  ←  SolveRequest / SolveReport
//        │                               solve_batch (any solver mix)
//   core wrappers     solve_pdip / solve_xbar_pdip / solve_ls_pdip
//        │
//   core engine       PdipEngine + NewtonSystem policies (core-private)
//
// Callers that need one specific solver's full option surface keep calling
// the core entry points directly; the registry is for code that treats the
// solver as data — the CLI's --solver flag, batched sweeps, benches that
// compare solvers. See docs/architecture.md for the layer map.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/ls_pdip.hpp"
#include "core/pdip.hpp"
#include "core/xbar_pdip.hpp"
#include "lp/problem.hpp"
#include "lp/result.hpp"
#include "solvers/simplex.hpp"

namespace memlp::engine {

/// One solve, solver chosen by name. The shared fields (`pdip`, `hardware`,
/// `seed`) parameterize whichever solver runs; a set per-solver override
/// (`xbar`, `ls`, `simplex`) is used verbatim instead, ignoring the shared
/// fields for that solver. `pdip.trace` is the structured-trace destination
/// for every solver (see obs/trace.hpp).
struct SolveRequest {
  std::string solver = "xbar";
  /// Algorithmic parameters shared by the three PDIP solvers; also carries
  /// the trace sink for all four.
  core::PdipOptions pdip{};
  /// Hardware selection for the analog solvers (ignored by simplex/pdip).
  core::BackendOptions hardware{};
  /// Seed for every stochastic hardware component (analog solvers).
  std::uint64_t seed = 0x5eed;
  /// Full per-solver option structs, used verbatim when set.
  std::optional<core::XbarPdipOptions> xbar;
  std::optional<core::LsPdipOptions> ls;
  std::optional<solvers::SimplexOptions> simplex;

  /// The effective options the "xbar" entry solves with (exposed so callers
  /// and tests can see exactly what a request resolves to).
  [[nodiscard]] core::XbarPdipOptions xbar_options() const;
  /// Likewise for "ls".
  [[nodiscard]] core::LsPdipOptions ls_options() const;
  /// Likewise for "simplex".
  [[nodiscard]] solvers::SimplexOptions simplex_options() const;
};

/// Uniform result: the LP solution plus, for the analog solvers, the
/// hardware-operation record that feeds perf::HardwareModel.
struct SolveReport {
  std::string solver;
  lp::SolveResult result;
  core::XbarSolveStats stats{};      ///< valid iff has_hardware_stats.
  bool has_hardware_stats = false;   ///< true for the crossbar solvers.
};

/// A registered solver: maps a (problem, request) pair to a report.
using SolveFn =
    std::function<SolveReport(const lp::LinearProgram&, const SolveRequest&)>;

/// Name → solver table. The four built-ins ("simplex", "pdip", "xbar",
/// "ls") are registered on first use of global(); benches and experiments
/// may register additional entries (re-registering a name replaces it).
/// Lookup is thread-safe, so batch workers can resolve names concurrently.
class SolverRegistry {
 public:
  SolverRegistry();
  ~SolverRegistry();
  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

  /// The process-wide registry with the built-ins pre-registered.
  static SolverRegistry& global();

  /// Adds (or replaces) a solver under `name`.
  void register_solver(const std::string& name, SolveFn fn);

  /// True when `name` is registered.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// All registered names, sorted — the CLI prints these on a bad --solver.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The solver registered under `name`, or std::nullopt.
  [[nodiscard]] std::optional<SolveFn> find(const std::string& name) const;

  /// Resolves `request.solver` and runs it. MEMLP_EXPECTs the name exists —
  /// callers taking untrusted names should `find()` first.
  SolveReport solve(const lp::LinearProgram& problem,
                    const SolveRequest& request) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: SolverRegistry::global().solve(problem, request).
SolveReport solve(const lp::LinearProgram& problem,
                  const SolveRequest& request);

}  // namespace memlp::engine
