#include "obs/health.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace memlp::obs {

const char* anomaly_name(Anomaly anomaly) noexcept {
  switch (anomaly) {
    case Anomaly::kStall:
      return "stall";
    case Anomaly::kDivergence:
      return "divergence";
    case Anomaly::kWildJump:
      return "wild_jump";
    case Anomaly::kMuOscillation:
      return "mu_oscillation";
    case Anomaly::kRetryStorm:
      return "retry_storm";
  }
  return "unknown";
}

void HealthMonitor::report(Anomaly anomaly, const char* solver,
                           TraceSink* sink, double value, double iteration) {
  const char* name = anomaly_name(anomaly);
  const std::string solver_name =
      solver != nullptr && *solver != 0 ? solver : "unknown";
  MetricsRegistry::global()
      .counter("health." + solver_name + "." + name)
      .add(1);
  flight_record(FlightEventKind::kAnomaly, name, value, iteration);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counts_[solver_name][name];
  }
  if (sink != nullptr) {
    Event event("anomaly");
    event.with("solver", solver_name).with("anomaly", name);
    if (value != 0.0) event.with("value", value);
    if (iteration != 0.0) event.with("iteration", iteration);
    sink->emit(event);
  }
}

std::map<std::string, std::map<std::string, std::uint64_t>>
HealthMonitor::rollup() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

std::uint64_t HealthMonitor::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& [solver, kinds] : counts_)
    for (const auto& [name, count] : kinds) sum += count;
  return sum;
}

void HealthMonitor::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.clear();
}

HealthMonitor& HealthMonitor::global() {
  static HealthMonitor monitor;
  return monitor;
}

}  // namespace memlp::obs
