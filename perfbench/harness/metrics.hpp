// perfbench metric math: the arithmetic every reported number goes through,
// kept apart from the solver calls so tests/metrics_selftest.cpp can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>

namespace perfbench {

/// Percentile q ∈ [0, 1] of `values` by linear interpolation between
/// closest ranks (q = 0.5 is the usual median). 0 for an empty sample.
double percentile(std::span<const double> values, double q);

/// A median together with the number of samples it was taken over; every
/// printed median carries its sample count.
struct Median {
  double value = 0.0;
  std::size_t samples = 0;
};
Median median(std::span<const double> values);

/// The sample-count rule: a tail percentile is reported only when at least
/// this many samples lie beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Samples lying beyond the q-percentile of n samples: ⌊n·(1 − q)⌋.
std::size_t samples_beyond(std::size_t samples, double q);

/// True when the q-percentile of n samples may be reported.
bool tail_reportable(std::size_t samples, double q);

/// Self time of every call path: its total minus the totals of its direct
/// children ("a/b" is a direct child of "a"; "a/b/c" is not).
std::map<std::string, double> self_times(
    const std::map<std::string, double>& totals);

/// The kind of miss when the benchmark's check rejects a solve, "" when it
/// passes. A solve passes when its status is "optimal", its x violates no
/// constraint by more than `tolerance` and its objective is within
/// `tolerance` of the reference. Otherwise the kind is the status name when
/// that is not "optimal", then "infeasible-x", then "objective".
std::string miss_kind(const std::string& status, double violation,
                      double rel_error, double tolerance);

/// The relative error a solve counts with: the measured error when the
/// solve passed the benchmark's check, 1 when it failed — so a failure can
/// never improve a median.
double counted_rel_error(bool passed, double measured_rel_error);

/// Host milliseconds per simulated PDIP iteration of one solve (a solve
/// that ran no iteration counts as one).
double iteration_ms(double wall_s, std::size_t iterations);

/// Failed ÷ attempted (0 when nothing was attempted).
double failed_fraction(std::size_t failed, std::size_t attempted);

/// Achieved rate in GFLOP/s from a ledger flop count and the self time it
/// was done in (0 when no time was recorded).
double gflops(std::uint64_t flops, double seconds);

/// |a − b| ÷ max(|a|, |b|), 0 when both are 0.
double relative_difference(double a, double b);

}  // namespace perfbench
