// Self-tests of the benchmark's metric math (harness/metrics.hpp).
// perfbench/run.py runs this binary before every benchmark run and refuses
// to report numbers when it fails. Exit code 0 = all checks passed.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void percentiles_and_sample_counts() {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  const perfbench::Median m = perfbench::median(odd);
  check(near(m.value, 3.0), "median of an odd sample is its middle value");
  check(m.samples == 3, "median carries its sample count");
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  check(near(perfbench::median(even).value, 2.5),
        "median of an even sample averages the middle pair");
  check(perfbench::median(std::vector<double>{}).samples == 0,
        "empty sample has no samples");
  check(near(perfbench::median(std::vector<double>{}).value, 0.0),
        "empty sample's median is 0");
  std::vector<double> ramp;
  for (int i = 0; i <= 100; ++i) ramp.push_back(i);
  check(near(perfbench::percentile(ramp, 0.95), 95.0),
        "p95 of 0..100 is 95");
  check(near(perfbench::percentile(ramp, 0.0), 0.0), "p0 is the minimum");
  check(near(perfbench::percentile(ramp, 1.0), 100.0), "p100 is the maximum");

  check(perfbench::samples_beyond(200, 0.95) == 10,
        "10 of 200 samples lie beyond p95");
  check(perfbench::tail_reportable(200, 0.95),
        "p95 of 200 samples is reportable");
  check(!perfbench::tail_reportable(199, 0.95),
        "p95 of 199 samples is not (9 beyond)");
  check(!perfbench::tail_reportable(999, 0.99),
        "p99 needs 1000 samples");
  check(perfbench::tail_reportable(1000, 0.99), "p99 of 1000 is reportable");
}

void self_time_is_total_minus_children() {
  const std::map<std::string, double> totals = {
      {"xbar", 10.0},
      {"xbar/iterations", 8.0},
      {"xbar/iterations/settle", 6.0},
      {"xbar/iterations/mvm", 1.0},
      {"xbar/programming", 0.5},
      {"pdip", 3.0},
  };
  const auto self = perfbench::self_times(totals);
  check(near(self.at("xbar"), 1.5), "root self = 10 - 8 - 0.5");
  check(near(self.at("xbar/iterations"), 1.0),
        "only direct children are subtracted (8 - 6 - 1)");
  check(near(self.at("xbar/iterations/settle"), 6.0), "leaf self = total");
  check(near(self.at("pdip"), 3.0), "childless root self = total");
  double sum = 0.0;
  for (const auto& [path, s] : self) sum += s;
  check(near(sum, 13.0), "self times sum to the root totals");
  const auto orphan =
      perfbench::self_times({{"a/b", 2.0}, {"a/bc", 1.0}, {"ab", 4.0}});
  check(near(orphan.at("ab"), 4.0), "a sibling with a shared prefix is not a child");
  check(near(orphan.at("a/b"), 2.0), "a child without a recorded parent keeps its total");
}

void failures_count_fully() {
  check(perfbench::miss_kind("optimal", 0.01, 0.05, 0.099).empty(),
        "optimal, feasible and inside the band passes");
  check(perfbench::miss_kind("iteration-limit", 0.0, 0.0, 0.099) ==
            "iteration-limit",
        "a non-optimal status is its own kind, whatever x is");
  check(perfbench::miss_kind("optimal", 0.47, 0.0, 0.099) == "infeasible-x",
        "an optimal label on an infeasible x is a miss");
  check(perfbench::miss_kind("optimal", 0.0, 2e-6, 1e-6) == "objective",
        "an objective outside the tolerance is a miss");
  check(perfbench::miss_kind("optimal", NAN, 0.0, 0.099) == "infeasible-x",
        "a non-finite violation never passes");
  check(perfbench::miss_kind("optimal", 0.0, NAN, 0.099) == "objective",
        "a non-finite error never passes");
  check(near(perfbench::counted_rel_error(true, 0.05), 0.05),
        "a passed solve keeps its error");
  check(near(perfbench::counted_rel_error(false, 0.001), 1.0),
        "a failed solve counts with rel_error 1");
  const std::vector<double> errors = {
      perfbench::counted_rel_error(true, 0.04),
      perfbench::counted_rel_error(false, 0.0),
      perfbench::counted_rel_error(false, 0.0)};
  check(near(perfbench::median(errors).value, 1.0),
        "two failures of three put the median at 1");
  check(near(perfbench::iteration_ms(6.0, 200), 30.0),
        "6 s over 200 iterations is 30 ms per iteration");
  check(near(perfbench::iteration_ms(0.5, 0), 500.0),
        "a solve with no iteration counts as one");
  check(near(perfbench::failed_fraction(1, 3), 1.0 / 3.0),
        "failed_frac = failed / attempted");
  check(near(perfbench::failed_fraction(0, 0), 0.0),
        "nothing attempted = 0");
}

void gflops_from_ledger_flops() {
  check(near(perfbench::gflops(2'000'000'000ULL, 0.5), 4.0),
        "2 GFLOP in 0.5 s is 4 GFLOP/s");
  check(near(perfbench::gflops(123, 0.0), 0.0), "no time recorded = 0");
  check(near(perfbench::relative_difference(1.0, 1.0 + 1e-10), 1e-10 / (1.0 + 1e-10)),
        "relative difference scales by the larger magnitude");
  check(near(perfbench::relative_difference(0.0, 0.0), 0.0), "0 vs 0 agrees");
}

}  // namespace

int main() {
  percentiles_and_sample_counts();
  self_time_is_total_minus_children();
  failures_count_fully();
  gflops_from_ledger_flops();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
