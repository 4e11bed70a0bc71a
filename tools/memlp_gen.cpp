// memlp_gen — LP instance generator writing MPS.
//
//   memlp_gen [options] > problem.mps
//
//   --kind feasible|infeasible|maxflow|scheduling|transportation|diet|
//          assignment                      (default feasible)
//   --m <n>            constraints for the random kinds (default 32)
//   --size <a> <b>     domain sizes (layers/width, products/resources,
//                      suppliers/consumers, foods/nutrients, workers/tasks)
//   --seed <n>         generator seed (default 1)
//
// Emits the instance on stdout as MPS (OBJSENSE MAX, full precision, so the
// solver reads back exactly the generated problem); pipe into memlp_solve:
//   memlp_gen --kind maxflow --size 3 4 | memlp_solve --solver xbar -
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "lp/generator.hpp"
#include "lp/mps.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: memlp_gen [--kind feasible|infeasible|maxflow|scheduling|"
      "transportation|diet|assignment] [--m n] [--size a b] [--seed n]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string kind = "feasible";
  std::size_t m = 32;
  std::size_t size_a = 3;
  std::size_t size_b = 3;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--kind") {
      kind = next();
    } else if (arg == "--m") {
      m = std::stoull(next());
    } else if (arg == "--size") {
      size_a = std::stoull(next());
      size_b = std::stoull(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  memlp::Rng rng(seed);
  memlp::lp::LinearProgram problem;
  try {
    if (kind == "feasible") {
      memlp::lp::GeneratorOptions options;
      options.constraints = m;
      problem = memlp::lp::random_feasible(options, rng);
    } else if (kind == "infeasible") {
      memlp::lp::GeneratorOptions options;
      options.constraints = m < 2 ? 2 : m;
      problem = memlp::lp::random_infeasible(options, rng);
    } else if (kind == "maxflow") {
      problem = memlp::lp::max_flow_routing(size_a, size_b, rng);
    } else if (kind == "scheduling") {
      problem = memlp::lp::production_scheduling(size_a, size_b, rng);
    } else if (kind == "transportation") {
      problem = memlp::lp::transportation(size_a, size_b, rng);
    } else if (kind == "diet") {
      problem = memlp::lp::diet(size_a, size_b, rng);
    } else if (kind == "assignment") {
      problem = memlp::lp::assignment(size_a, size_b, rng);
    } else {
      std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
      usage();
      return 2;
    }
  } catch (const memlp::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::cout << memlp::lp::to_mps(problem);
  return 0;
}
