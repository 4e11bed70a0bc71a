#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Median median(std::span<const double> values) {
  return {percentile(values, 0.5), values.size()};
}

std::size_t samples_beyond(std::size_t samples, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(samples) * (1.0 - q) + 1e-9));
}

bool tail_reportable(std::size_t samples, double q) {
  return samples_beyond(samples, q) >= kMinTailSamples;
}

std::map<std::string, double> self_times(
    const std::map<std::string, double>& totals) {
  std::map<std::string, double> self = totals;
  for (const auto& [path, total] : totals) {
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos) continue;
    const auto parent = self.find(path.substr(0, slash));
    if (parent != self.end()) parent->second -= total;
  }
  return self;
}

std::string miss_kind(const std::string& status, double violation,
                      double rel_error, double tolerance) {
  if (status != "optimal") return status;
  if (!(violation <= tolerance)) return "infeasible-x";
  if (!(rel_error <= tolerance)) return "objective";
  return "";
}

double counted_rel_error(bool passed, double measured_rel_error) {
  return passed ? measured_rel_error : 1.0;
}

double iteration_ms(double wall_s, std::size_t iterations) {
  return wall_s * 1e3 / static_cast<double>(std::max<std::size_t>(1, iterations));
}

double failed_fraction(std::size_t failed, std::size_t attempted) {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double gflops(std::uint64_t flops, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(flops) / seconds * 1e-9;
}

double relative_difference(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  if (scale == 0.0) return 0.0;
  return std::abs(a - b) / scale;
}

}  // namespace perfbench
