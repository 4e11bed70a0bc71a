#include "crossbar/crossbar.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "linalg/ops.hpp"
#include "obs/cost_ledger.hpp"

namespace memlp::xbar {

void CrossbarConfig::validate() const {
  device.validate();
  if (conductance_levels < 2)
    throw ConfigError("crossbar: need >= 2 conductance levels");
  if (sense_conductance <= 0.0)
    throw ConfigError("crossbar: sense conductance must be > 0");
  if (io_bits > 24) throw ConfigError("crossbar: io_bits must be <= 24");
  if (read_noise_sigma < 0.0 || read_noise_sigma > 0.5)
    throw ConfigError("crossbar: read_noise_sigma must be in [0, 0.5]");
  if (write_scheme.half_select_disturb < 0.0 ||
      write_scheme.half_select_disturb > 1e-2)
    throw ConfigError(
        "crossbar: half_select_disturb must be in [0, 1e-2]");
  if (per_cell_gain_ranging && !compensate_sense_divider)
    throw ConfigError(
        "crossbar: per-cell gain ranging assumes a compensated readout");
}

std::size_t CrossbarStats::pulse_bucket(std::size_t pulses) noexcept {
  // 0 → 0; otherwise bit_width gives k for pulses in [2^(k-1), 2^k).
  return std::min<std::size_t>(std::bit_width(pulses),
                               kPulseHistogramBuckets - 1);
}

void CrossbarStats::record_write(std::size_t pulses) noexcept {
  ++cells_written;
  write_pulses += pulses;
  ++pulse_histogram[pulse_bucket(pulses)];
}

CrossbarStats& CrossbarStats::operator+=(const CrossbarStats& other) noexcept {
  full_programs += other.full_programs;
  cells_written += other.cells_written;
  write_pulses += other.write_pulses;
  mvm_ops += other.mvm_ops;
  solve_ops += other.solve_ops;
  failed_settles += other.failed_settles;
  for (std::size_t k = 0; k < kPulseHistogramBuckets; ++k)
    pulse_histogram[k] += other.pulse_histogram[k];
  return *this;
}

CrossbarStats CrossbarStats::since(const CrossbarStats& earlier) const noexcept {
  CrossbarStats d;
  d.full_programs = full_programs - earlier.full_programs;
  d.cells_written = cells_written - earlier.cells_written;
  d.write_pulses = write_pulses - earlier.write_pulses;
  d.mvm_ops = mvm_ops - earlier.mvm_ops;
  d.solve_ops = solve_ops - earlier.solve_ops;
  d.failed_settles = failed_settles - earlier.failed_settles;
  for (std::size_t k = 0; k < kPulseHistogramBuckets; ++k)
    d.pulse_histogram[k] = pulse_histogram[k] - earlier.pulse_histogram[k];
  return d;
}

Crossbar::Crossbar(CrossbarConfig config, Rng rng)
    : config_(config),
      rng_(rng),
      programming_(config.device, config.conductance_levels),
      io_(config.io_bits) {
  config_.validate();
}

void Crossbar::program(const Matrix& a, double full_scale_hint,
                       PivotPlan plan) {
  MEMLP_EXPECT_MSG(a.nonnegative(),
                   "crossbar can only represent non-negative matrices");
  MEMLP_EXPECT(a.rows() > 0 && a.cols() > 0);
  if (config_.max_dim != 0) {
    MEMLP_EXPECT_MSG(a.rows() <= config_.max_dim && a.cols() <= config_.max_dim,
                     "matrix " << a.rows() << "x" << a.cols()
                               << " exceeds crossbar max_dim "
                               << config_.max_dim);
  }

  const bool same_shape =
      programmed() && a.rows() == ideal_.rows() && a.cols() == ideal_.cols();
  if (!same_shape) {
    level_g_ = Matrix(a.rows(), a.cols(), programming_.g_min());
    effective_g_ = Matrix(a.rows(), a.cols(), programming_.g_min());
    effective_ = Matrix(a.rows(), a.cols());
  }
  ideal_ = a;
  full_scale_ = std::max({a.max_abs(), full_scale_hint, 1e-300});
  slope_ =
      (programming_.g_max() - programming_.g_min()) / full_scale_;

  ++stats_.full_programs;
  const std::size_t cells_before = stats_.cells_written;
  const std::size_t pulses_before = stats_.write_pulses;
  // A full program erases and rewrites every occupied cell, so each one gets
  // a fresh variation draw — the basis of the paper's re-solve scheme
  // (§4.3). Cells that are zero both before and after stay at the erased
  // level for free, which is what makes initialization cheaper for the
  // sparse matrices "common in linear programs" (§3.5).
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const bool structurally_zero =
          a(i, j) == 0.0 && level_g_(i, j) <= programming_.g_min();
      write_cell(i, j, a(i, j), /*force=*/!structurally_zero);
    }
  obs::CostLedger::charge_active(
      {.cells_written = stats_.cells_written - cells_before,
       .write_pulses = stats_.write_pulses - pulses_before});
  // Every cell was re-drawn: the cached factorization is of a different
  // matrix (and possibly a different shape) — drop it wholesale.
  settle_cache_.set_plan(std::move(plan));
}

std::size_t Crossbar::update_cells(std::span<const CellUpdate> updates) {
  MEMLP_EXPECT(programmed());
  for (const CellUpdate& u : updates) {
    MEMLP_EXPECT_MSG(u.value >= 0.0, "crossbar cells are non-negative");
    MEMLP_EXPECT(u.row < rows() && u.col < cols());
  }
  const std::size_t cells_before = stats_.cells_written;
  std::size_t start = 0;
  if (!config_.per_cell_gain_ranging) {
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (updates[i].value <= full_scale_) continue;
      // The mapping full-scale no longer covers this cell: flush the cells
      // before it, then transparently re-map the whole array — at exactly
      // the point a sequential per-cell writer would have, so the write
      // (and variation-draw) sequence is identical to one-cell batches in a
      // loop. This mirrors real deployments, where the full-scale is chosen
      // with headroom up front; the solvers pass a headroom hint to make
      // this path rare. Doubling the new maximum damps re-map thrashing.
      // program() invalidates the cached factorization.
      //
      // Deliberately NO half-select disturb on this path, unlike the
      // incremental writes in apply_updates. A full program() is an
      // erase-all followed by a force-write of every occupied cell (V/2
      // scheme, §3.3): whatever disturb the write sequence inflicts on a
      // neighbour is overwritten moments later when that neighbour's own
      // target is force-written, so the post-program array carries no
      // residual disturb by construction. The incremental path rewrites only
      // the batch and leaves neighbours holding their charge — those are the
      // cells half-select stress acts on. test_crossbar's
      // UpdateBlockDisturbOnlyOnTheIncrementalPath pins both behaviours.
      apply_updates(updates.subspan(start, i - start));
      Matrix updated = ideal_;
      updated(updates[i].row, updates[i].col) = updates[i].value;
      program(updated, 2.0 * updates[i].value, settle_cache_.plan());
      start = i + 1;
    }
  }
  apply_updates(updates.subspan(start));
  return stats_.cells_written - cells_before;
}

void Crossbar::apply_updates(std::span<const CellUpdate> updates) {
  const std::size_t cells_before = stats_.cells_written;
  const std::size_t pulses_before = stats_.write_pulses;
  for (const CellUpdate& u : updates) {
    ideal_(u.row, u.col) = u.value;
    if (write_cell(u.row, u.col, u.value, /*force=*/false)) {
      // Precise invalidation: only a cell whose programmed level actually
      // changed can move the effective matrix (its own value and, through
      // half-select disturb, its row and column), so only then is the
      // settle cache dropped. A no-op rewrite (same quantized level, the
      // common case for slowly-moving PDIP diagonals) keeps the cached
      // factorization fully valid.
      settle_cache_.invalidate();
      apply_half_select_disturb(u.row, u.col);
    }
  }
  obs::CostLedger::charge_active(
      {.cells_written = stats_.cells_written - cells_before,
       .write_pulses = stats_.write_pulses - pulses_before});
}

bool Crossbar::write_cell(std::size_t r, std::size_t c, double value,
                          bool force) {
  MEMLP_ASSERT(value >= 0.0);
  if (config_.per_cell_gain_ranging) {
    // Gain-ranged cell: the value is stored with relative precision — its
    // mantissa is quantized to the array's level count, the exponent lives
    // in the per-cell gain stage.
    double quantized = 0.0;
    if (value > 0.0) {
      int exponent = 0;
      const double mantissa = std::frexp(value, &exponent);
      const auto steps = static_cast<double>(config_.conductance_levels);
      quantized = std::ldexp(std::round(mantissa * steps) / steps, exponent);
    }
    if (!force && quantized == level_g_(r, c)) return false;  // keeps its draw
    // One pulse per mantissa bit of the gain-ranged write.
    stats_.record_write(static_cast<std::size_t>(
        std::max(1.0, std::log2(static_cast<double>(
                          config_.conductance_levels)))));
    level_g_(r, c) = quantized;
    const double value_eff = config_.variation.perturb(quantized, rng_);
    effective_(r, c) = value_eff;
    // Keep a consistent conductance view for stats/divider bookkeeping.
    effective_g_(r, c) = std::max(
        programming_.g_min() + value_eff * slope_, 1e-300);
    return true;
  }
  const double g_ideal = programming_.g_min() + value * slope_;
  const double g_prog = programming_.quantize(g_ideal);
  const double g_old = level_g_(r, c);
  if (!force &&
      programming_.level_for(g_old) == programming_.level_for(g_prog)) {
    // Same programmed level: the cell is not re-written, so it keeps its
    // previous variation draw (no write, no new draw) and the effective
    // matrix is untouched.
    effective_(r, c) = logical_from_conductance(effective_g_(r, c), r, c);
    return false;
  }
  stats_.record_write(programming_.pulses_for(g_old, g_prog));
  level_g_(r, c) = g_prog;
  const double g_eff =
      std::max(config_.variation.perturb(g_prog, rng_), 1e-300);
  effective_g_(r, c) = g_eff;
  effective_(r, c) = logical_from_conductance(g_eff, r, c);
  return true;
}

double Crossbar::logical_from_conductance(double g_eff, std::size_t r,
                                          std::size_t c) const noexcept {
  if (config_.line_resistance_ohm > 0.0) {
    // First-order IR drop: the (r + c + 2) wire segments between the cell
    // and its drivers act as a series resistance.
    const double segments = static_cast<double>(r + c + 2);
    g_eff = g_eff /
            (1.0 + g_eff * config_.line_resistance_ohm * segments);
  }
  if (config_.subtract_gmin_offset)
    return (g_eff - programming_.g_min()) / slope_;
  return g_eff / slope_;
}

void Crossbar::apply_read_noise(Vec& out) {
  if (config_.read_noise_sigma <= 0.0 || out.empty()) return;
  const double scale = norm_inf(out);
  if (scale <= 0.0) return;
  for (double& v : out)
    v += config_.read_noise_sigma * scale * rng_.normal();
}

void Crossbar::apply_half_select_disturb(std::size_t r, std::size_t c) {
  const double disturb = config_.write_scheme.half_select_disturb;
  if (disturb <= 0.0) return;
  // Every other device on word line r and bit line c sees Vdd/2 for the
  // pulse and drifts by a random fraction of its value (§3.3's "negligible
  // effect" made explicit and accountable).
  const auto nudge = [&](std::size_t i, std::size_t j) {
    const double factor = 1.0 + disturb * rng_.signed_unit();
    effective_g_(i, j) = std::max(effective_g_(i, j) * factor, 1e-300);
    effective_(i, j) = logical_from_conductance(effective_g_(i, j), i, j);
  };
  for (std::size_t j = 0; j < cols(); ++j)
    if (j != c) nudge(r, j);
  for (std::size_t i = 0; i < rows(); ++i)
    if (i != r) nudge(i, c);
}

void Crossbar::apply_sense_divider(Vec& out) const {
  if (config_.compensate_sense_divider) return;
  const double gs = config_.sense_conductance;
  for (std::size_t k = 0; k < out.size(); ++k) {
    double sum = 0.0;
    for (double g : effective_g_.row(k)) sum += g;
    out[k] *= gs / (gs + sum);
  }
}

namespace {

bool quantize_input(Crossbar::IoBoundary io) {
  return io == Crossbar::IoBoundary::kBoth ||
         io == Crossbar::IoBoundary::kInputOnly;
}

bool quantize_output(Crossbar::IoBoundary io) {
  return io == Crossbar::IoBoundary::kBoth ||
         io == Crossbar::IoBoundary::kOutputOnly;
}

}  // namespace

// memlint:hot — analog MVM readout; runs once per settle step.
Vec Crossbar::multiply(std::span<const double> x, IoBoundary io) {
  MEMLP_EXPECT(programmed());
  MEMLP_EXPECT_MSG(x.size() == cols(), "multiply: size mismatch");
  const Vec quantized = quantize_input(io) ? io_.quantized(x) : Vec();
  const std::span<const double> input =
      quantize_input(io) ? std::span<const double>(quantized) : x;
  Vec out = gemv(effective_, input);
  apply_sense_divider(out);
  apply_read_noise(out);
  if (quantize_output(io)) io_.quantize(out);
  ++stats_.mvm_ops;
  obs::CostLedger::charge_active({.settles = 1});
  return out;
}

// memlint:hot — the iterative settle loop; the paper's O(1) analog solve.
std::optional<Vec> Crossbar::solve(std::span<const double> b, IoBoundary io) {
  MEMLP_EXPECT(programmed());
  MEMLP_EXPECT_MSG(effective_.square(), "solve requires a square array");
  MEMLP_EXPECT_MSG(b.size() == rows(), "solve: size mismatch");
  // A re-factor copies the effective array into the storage of the factor
  // it replaces; a hit copies nothing.
  if (!settle_cache_.prepare(rows(),
                             [this](Matrix& a) { a = effective_; })) {
    // A singular effective array never settles: no solve happened, so
    // nothing is charged to the energy ledger and solve_ops stays put.
    ++stats_.failed_settles;
    return std::nullopt;
  }
  ++stats_.solve_ops;
  obs::CostLedger::charge_active({.settles = 1});
  const Vec quantized = quantize_input(io) ? io_.quantized(b) : Vec();
  const std::span<const double> rhs =
      quantize_input(io) ? std::span<const double>(quantized) : b;
  Vec x = settle_cache_.solve(rhs);
  if (!std::all_of(x.begin(), x.end(),
                   [](double v) { return std::isfinite(v); })) {
    // The settle physically ran (and was charged) but read out garbage.
    ++stats_.failed_settles;
    return std::nullopt;
  }
  apply_read_noise(x);
  if (quantize_output(io)) io_.quantize(x);
  return x;
}

}  // namespace memlp::xbar
