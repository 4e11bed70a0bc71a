// Tests for the §3.3 V/2 write-bias scheme: event accounting, half-select
// disturb, and per-read noise.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "crossbar/crossbar.hpp"
#include "crossbar/write_scheme.hpp"
#include "linalg/ops.hpp"

namespace memlp::xbar {
namespace {

TEST(WriteScheme, EventCountsHalfSelectedCells) {
  const auto event =
      selective_write_event(mem::DeviceParameters{}, 8, 12, 0.0, 0.0);
  EXPECT_EQ(event.half_selected_cells, 11u + 7u);
  EXPECT_GT(event.selected_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(event.half_select_energy_j, 0.0);  // no other devices
}

TEST(WriteScheme, HalfSelectEnergyScalesWithLineLoading) {
  const mem::DeviceParameters device;
  const auto light = selective_write_event(device, 64, 64, 1e-4, 1e-4);
  const auto heavy = selective_write_event(device, 64, 64, 1e-2, 1e-2);
  EXPECT_GT(heavy.half_select_energy_j, light.half_select_energy_j * 50.0);
  // Vdd/2 across heavy lines can dominate the selected cell's energy — the
  // large-array effect the ideal abstraction hides.
  EXPECT_GT(heavy.half_select_energy_j, heavy.selected_energy_j);
}

TEST(WriteScheme, SingleCellArrayHasNoHalfSelects) {
  const auto event =
      selective_write_event(mem::DeviceParameters{}, 1, 1, 0.0, 0.0);
  EXPECT_EQ(event.half_selected_cells, 0u);
}

CrossbarConfig base_config() {
  CrossbarConfig config;
  config.variation = mem::VariationModel::none();
  config.conductance_levels = 1 << 20;
  config.io_bits = 0;
  return config;
}

TEST(Crossbar, DisturbDriftsSharedRowAndColumn) {
  CrossbarConfig config = base_config();
  config.write_scheme.half_select_disturb = 1e-3;
  Crossbar xbar(config, Rng(1));
  xbar.program(Matrix(8, 8, 1.0), 4.0);
  const Matrix before = xbar.effective();
  // A large-change write to (3, 4) half-selects row 3 and column 4.
  xbar.update_cells(std::array{CellUpdate{3, 4, 2.0}});
  const Matrix& after = xbar.effective();
  double drift_shared = 0.0;
  for (std::size_t j = 0; j < 8; ++j)
    if (j != 4) drift_shared += std::abs(after(3, j) - before(3, j));
  EXPECT_GT(drift_shared, 0.0);
  // Cells on unrelated rows/columns are untouched.
  EXPECT_EQ(after(0, 0), before(0, 0));
  EXPECT_EQ(after(7, 7), before(7, 7));
}

TEST(Crossbar, DisturbAccumulatesOverManyWrites) {
  CrossbarConfig config = base_config();
  config.write_scheme.half_select_disturb = 1e-3;
  Crossbar xbar(config, Rng(2));
  xbar.program(Matrix(8, 8, 1.0), 4.0);
  // Hammer one cell; its row/column neighbours random-walk away from 1.0.
  for (int k = 0; k < 500; ++k)
    xbar.update_cells(std::array{CellUpdate{0, 0, k % 2 == 0 ? 2.0 : 1.0}});
  double drift = 0.0;
  for (std::size_t j = 1; j < 8; ++j)
    drift = std::max(drift, std::abs(xbar.effective()(0, j) - 1.0));
  EXPECT_GT(drift, 1e-3);   // visible accumulation
  EXPECT_LT(drift, 0.5);    // but still a perturbation, not corruption
}

TEST(Crossbar, ZeroDisturbIsIdeal) {
  CrossbarConfig config = base_config();
  Crossbar xbar(config, Rng(3));
  xbar.program(Matrix(6, 6, 1.0), 4.0);
  const Matrix before = xbar.effective();
  xbar.update_cells(std::array{CellUpdate{2, 2, 3.0}});
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      if (i != 2 || j != 2) {
        EXPECT_EQ(xbar.effective()(i, j), before(i, j));
      }
}

TEST(Crossbar, ReadNoisePerturbsEveryRead) {
  CrossbarConfig config = base_config();
  config.read_noise_sigma = 0.01;
  Crossbar xbar(config, Rng(4));
  xbar.program(Matrix(6, 6, 1.0));
  const Vec x(6, 1.0);
  const Vec first = xbar.multiply(x);
  const Vec second = xbar.multiply(x);
  double difference = 0.0;
  for (std::size_t i = 0; i < 6; ++i)
    difference += std::abs(first[i] - second[i]);
  EXPECT_GT(difference, 0.0);  // noise is redrawn per read
  // Magnitude is about sigma of the output scale.
  const Vec clean_config_output = gemv(xbar.effective(), x);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(first[i], clean_config_output[i],
                6.0 * 0.01 * norm_inf(clean_config_output));
}

TEST(Crossbar, ReadNoiseConfigValidation) {
  CrossbarConfig config = base_config();
  config.read_noise_sigma = 0.9;
  EXPECT_THROW(config.validate(), ConfigError);
  config = base_config();
  config.write_scheme.half_select_disturb = 0.1;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace memlp::xbar
