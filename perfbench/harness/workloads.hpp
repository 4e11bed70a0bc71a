// perfbench workloads: which problems each workload generates and which
// registry request solves them. README.md records why each one exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "lp/problem.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Problem-set size: generator seeds [seed, seed + problems) of the
  /// --seed argument, taken in that order.
  std::size_t problems = 1;
  memlp::lp::LinearProgram (*generate)(std::uint64_t seed) = nullptr;
  memlp::engine::SolveRequest request;
  /// Objective and primal-feasibility tolerance of the check against the
  /// simplex reference.
  double tolerance = 1e-6;
  /// The kinds of miss (see perfbench::miss_kind) this workload is known to
  /// produce today. They count in failed_frac and leave the run correct;
  /// any other miss fails the run.
  std::vector<std::string> declared_misses;

  [[nodiscard]] bool declares(const std::string& miss) const;
};

/// The workload named `name`, or nullptr.
const Workload* find_workload(const std::string& name);

/// All workload names, in catalogue order.
std::vector<std::string> workload_names();

}  // namespace perfbench
