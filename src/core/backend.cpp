#include "core/backend.hpp"

#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace memlp::core {
namespace {

class ArrayBackend final : public AnalogBackend {
 public:
  template <class Config>
  ArrayBackend(const Config& config, Rng rng) : array_(config, rng) {}

  void program(const Matrix& a, double full_scale_hint,
               PivotPlan plan) override {
    array_.program(a, full_scale_hint, std::move(plan));
  }
  void update_cells(std::span<const xbar::CellUpdate> updates) override {
    array_.update_cells(updates);
  }
  Vec multiply(std::span<const double> x, IoBoundary io) override {
    return array_.multiply(x, io);
  }
  std::optional<Vec> solve(std::span<const double> b,
                           IoBoundary io) override {
    return array_.solve(b, io);
  }
  BackendStats stats() const override {
    BackendStats s;
    s.xbar = array_.crossbar_stats();
    s.amps = array_.amplifier_stats();
    s.noc = array_.noc_stats();
    s.settle_cache = array_.settle_cache_stats();
    s.num_tiles = array_.num_tiles();
    s.zero_tiles = array_.num_zero_tiles();
    return s;
  }
  const LuFactorization* settle_factor() const override {
    return array_.settle_factor();
  }
  void reset_stats() override { array_.reset_stats(); }

 private:
  noc::TiledCrossbarMatrix array_;
};

}  // namespace

void annotate_backend_stats(obs::PhaseSpan& span, const BackendStats& delta) {
  if (!span.active()) return;
  span.note("xbar.full_programs", delta.xbar.full_programs);
  span.note("xbar.cells_written", delta.xbar.cells_written);
  span.note("xbar.write_pulses", delta.xbar.write_pulses);
  span.note("xbar.mvm_ops", delta.xbar.mvm_ops);
  span.note("xbar.solve_ops", delta.xbar.solve_ops);
  // Failure counters appear only when something failed, keeping healthy
  // traces (and the pinned golden ones) unchanged.
  if (delta.xbar.failed_settles != 0)
    span.note("xbar.failed_settles", delta.xbar.failed_settles);
  for (std::size_t k = 0; k < xbar::CrossbarStats::kPulseHistogramBuckets; ++k)
    if (delta.xbar.pulse_histogram[k] != 0)
      span.note("xbar.pulse_hist.b" + std::to_string(k),
                delta.xbar.pulse_histogram[k]);
  span.note("amps.element_ops", delta.amps.element_ops);
  span.note("amps.vector_ops", delta.amps.vector_ops);
  span.note("num_tiles", delta.num_tiles);
  // Emitted only when a shard was actually skipped: healthy single-crossbar
  // traces (and the pinned golden ones) are unchanged.
  if (delta.zero_tiles != 0) span.note("zero_tiles", delta.zero_tiles);
  if (delta.num_tiles > 1) {
    span.note("noc.transfers", delta.noc.transfers);
    span.note("noc.value_hops", delta.noc.value_hops);
    span.note("noc.global_settles", delta.noc.global_settles);
    span.note("noc.tile_settles", delta.noc.tile_settles);
    if (delta.noc.failed_global_settles != 0)
      span.note("noc.failed_global_settles", delta.noc.failed_global_settles);
  }
}

std::unique_ptr<AnalogBackend> make_backend(const BackendOptions& options,
                                            Rng rng) {
  if (!options.force_noc)
    return std::make_unique<ArrayBackend>(options.crossbar, rng);
  return std::make_unique<ArrayBackend>(
      noc::TiledConfig{options.tile_dim, options.topology, options.crossbar},
      rng);
}

}  // namespace memlp::core
