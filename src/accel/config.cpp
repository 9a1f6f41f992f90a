#include "accel/config.hpp"

#include <numeric>
#include <stdexcept>

namespace gnna::accel {

std::string ClockRatio::format(std::uint64_t t) const {
  std::string s = std::to_string(t / q);
  if (const std::uint64_t r = t % q; r != 0) {
    const std::uint64_t g = std::gcd(r, q);
    s += '+' + std::to_string(r / g) + '/' + std::to_string(q / g);
  }
  return s;
}

ClockRatio AcceleratorConfig::clock_ratio() const {
  const auto mhz = [](Frequency f, const char* which) {
    if (const auto m = f.whole_mhz()) return *m;
    throw std::invalid_argument(std::string(which) + " clock of " +
                                std::to_string(f.ghz()) +
                                " GHz is not a whole number of MHz");
  };
  const std::uint64_t noc = mhz(noc_clock, "NoC");
  const std::uint64_t core = mhz(core_clock, "core");
  const std::uint64_t g = std::gcd(noc, core);
  return {noc / g, core / g};
}

AcceleratorConfig AcceleratorConfig::cpu_iso_bw() {
  AcceleratorConfig c;
  c.name = "CPU iso-BW";
  c.mesh_width = 2;
  c.mesh_height = 1;
  c.tile_coords = {{0, 0}};
  c.mem_coords = {{1, 0}};
  return c;
}

AcceleratorConfig AcceleratorConfig::gpu_iso_bw() {
  AcceleratorConfig c;
  c.name = "GPU iso-BW";
  c.mesh_width = 4;
  c.mesh_height = 4;
  // Tiles occupy the two middle columns; memory nodes line the edges
  // (Fig 9, middle).
  for (std::uint32_t y = 0; y < 4; ++y) {
    c.tile_coords.emplace_back(1, y);
    c.tile_coords.emplace_back(2, y);
    c.mem_coords.emplace_back(0, y);
    c.mem_coords.emplace_back(3, y);
  }
  return c;
}

AcceleratorConfig AcceleratorConfig::gpu_iso_flops() {
  AcceleratorConfig c;
  c.name = "GPU iso-FLOPS";
  c.mesh_width = 6;
  c.mesh_height = 4;
  // 16 tiles in the four middle columns, 8 memory nodes on the edge
  // columns (Fig 9, right).
  for (std::uint32_t y = 0; y < 4; ++y) {
    for (std::uint32_t x = 1; x <= 4; ++x) c.tile_coords.emplace_back(x, y);
    c.mem_coords.emplace_back(0, y);
    c.mem_coords.emplace_back(5, y);
  }
  return c;
}

}  // namespace gnna::accel
