#include "core/backend.hpp"

#include <sstream>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "obs/trace.hpp"

namespace memlp::core {
namespace {

class SingleCrossbarBackend final : public AnalogBackend {
 public:
  SingleCrossbarBackend(const xbar::CrossbarConfig& config, Rng rng)
      : crossbar_(config, rng) {}

  void program(const Matrix& a, double full_scale_hint,
               PivotPlan plan) override {
    crossbar_.program(a, full_scale_hint, std::move(plan));
  }
  void update_cells(std::span<const xbar::CellUpdate> updates) override {
    crossbar_.update_cells(updates);
  }
  Vec multiply(std::span<const double> x, IoBoundary io) override {
    return crossbar_.multiply(x, io);
  }
  std::optional<Vec> solve(std::span<const double> b,
                           IoBoundary io) override {
    return crossbar_.solve(b, io);
  }
  BackendStats stats() const override {
    BackendStats s;
    s.xbar = crossbar_.stats();
    s.settle_cache = crossbar_.settle_cache_stats();
    s.num_tiles = 1;
    return s;
  }
  const LuFactorization* settle_factor() const override {
    return crossbar_.settle_factor();
  }
  void reset_stats() override { crossbar_.reset_stats(); }
  std::string describe() const override {
    std::ostringstream os;
    os << "single crossbar " << crossbar_.rows() << "x" << crossbar_.cols();
    return os.str();
  }

 private:
  xbar::Crossbar crossbar_;
};

class TiledNocBackend final : public AnalogBackend {
 public:
  TiledNocBackend(const BackendOptions& options, Rng rng)
      : tiled_(noc::TiledConfig{options.tile_dim, options.topology,
                                options.crossbar},
               rng) {}

  void program(const Matrix& a, double full_scale_hint,
               PivotPlan plan) override {
    tiled_.program(a, full_scale_hint, std::move(plan));
  }
  void update_cells(std::span<const xbar::CellUpdate> updates) override {
    tiled_.update_cells(updates);
  }
  Vec multiply(std::span<const double> x, IoBoundary io) override {
    return tiled_.multiply(x, io);
  }
  std::optional<Vec> solve(std::span<const double> b,
                           IoBoundary io) override {
    return tiled_.solve(b, io);
  }
  BackendStats stats() const override {
    BackendStats s;
    s.xbar = tiled_.crossbar_stats();
    s.amps = tiled_.amplifier_stats();
    s.noc = tiled_.noc_stats();
    s.settle_cache = tiled_.settle_cache_stats();
    s.num_tiles = tiled_.num_tiles();
    s.zero_tiles = tiled_.num_zero_tiles();
    return s;
  }
  const LuFactorization* settle_factor() const override {
    return tiled_.settle_factor();
  }
  void reset_stats() override { tiled_.reset_stats(); }
  std::string describe() const override {
    std::ostringstream os;
    os << (tiled_.config().topology == noc::TopologyKind::kHierarchical
               ? "hierarchical"
               : "mesh")
       << " NoC, " << tiled_.num_tiles() << " tiles of "
       << tiled_.config().tile_dim;
    if (tiled_.programmed() && tiled_.num_zero_tiles() > 0)
      os << " (" << tiled_.num_zero_tiles() << " zero shards skipped)";
    return os.str();
  }

 private:
  noc::TiledCrossbarMatrix tiled_;
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
                                            std::size_t dim, Rng rng) {
  MEMLP_EXPECT(dim > 0);
  const std::size_t crossbar_limit =
      options.crossbar.max_dim == 0 ? dim : options.crossbar.max_dim;
  const bool needs_noc = options.force_noc || dim > crossbar_limit;
  if (needs_noc) {
    BackendOptions tiled_options = options;
    tiled_options.crossbar.max_dim = 0;  // tile enforces its own bound
    return std::make_unique<TiledNocBackend>(tiled_options, rng);
  }
  return std::make_unique<SingleCrossbarBackend>(options.crossbar, rng);
}

}  // namespace memlp::core
