// Accelerator configurations (Table VI, Fig 9) and per-tile parameters
// (Section III / Table I).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"
#include "dataflow/spatial.hpp"
#include "mem/memory.hpp"
#include "noc/router.hpp"

namespace gnna::accel {

/// Hardware parameters of one tile (Fig 3-7).
struct TileParams {
  // GPE: software thread pool scheduled by the lightweight runtime.
  std::uint32_t gpe_threads = 16;

  // AGG: 62kB data + 2kB control scratchpads, bank of 16 32-bit ALUs.
  std::uint32_t agg_data_bytes = 62 * 1024;
  std::uint32_t agg_ctrl_bytes = 2 * 1024;
  static constexpr std::uint32_t agg_ctrl_entry_bytes = 16;  // per entry
  std::uint32_t agg_alus = 16;

  // DNQ: 62kB queue scratchpad + 2kB destination scratchpad, two virtual
  // queues, lazy switch after 16 idle DNA cycles.
  std::uint32_t dnq_data_bytes = 62 * 1024;
  std::uint32_t dnq_dest_bytes = 2 * 1024;
  static constexpr std::uint32_t dnq_dest_entry_bytes = 8;
  std::uint32_t dnq_idle_switch_cycles = 16;
  // Fraction (in 1/16ths) of the data scratchpad given to virtual queue 0;
  // runtime-configurable via the allocation bus (per phase).
  std::uint32_t dnq_queue0_sixteenths = 8;

  // DNA: Eyeriss-like spatial array (Table I) behind a latency-throughput
  // model. `dna_pipeline_latency` is the fill/drain latency added to each
  // entry's completion; `dna_min_ii` floors the initiation interval.
  dataflow::SpatialArrayConfig dna = dataflow::SpatialArrayConfig::eyeriss();
  std::uint32_t dna_pipeline_latency = 32;
  std::uint32_t dna_min_ii = 4;

  // GPE micro-op costs, in core cycles.
  static constexpr std::uint32_t cost_context_switch = 1;
  static constexpr std::uint32_t cost_issue_load = 1;
  static constexpr std::uint32_t cost_loop_iter = 1;
  static constexpr std::uint32_t cost_alloc = 2;  // allocation-bus transaction
  static constexpr std::uint32_t cost_send = 1;   // initiate a NoC send
};

/// noc_clock / core_clock as a reduced fraction p/q of the two clocks in
/// whole MHz: 2.4/2.4 GHz is 1/1, 2.4/1.8 is 4/3, 2.4/1.0 is 12/5. The
/// GPE, DNA and AGG keep time as integers in units of 1/q NoC cycle, in
/// which a core cycle is exactly p units, so no sum of costs rounds
/// (DESIGN.md §17).
struct ClockRatio {
  std::uint64_t p = 1;  // time units per core cycle
  std::uint64_t q = 1;  // time units per NoC cycle

  /// The time at NoC cycle `c`.
  [[nodiscard]] constexpr std::uint64_t at(Cycle c) const { return c * q; }
  /// The duration of `core_cycles` core cycles.
  [[nodiscard]] constexpr std::uint64_t core(std::uint64_t core_cycles) const {
    return core_cycles * p;
  }
  /// The first NoC cycle at or after time `t`.
  [[nodiscard]] constexpr Cycle ceil_cycle(std::uint64_t t) const {
    return (t + q - 1) / q;
  }
  /// Time `t` in NoC cycles, for stats and trace timestamps.
  [[nodiscard]] constexpr double cycles(std::uint64_t t) const {
    return static_cast<double>(t) / static_cast<double>(q);
  }
  /// Time `t` in NoC cycles, exactly: "1000320", or "1000320+1/3".
  [[nodiscard]] std::string format(std::uint64_t t) const;
};

/// A full accelerator configuration: mesh shape, tile and memory-node
/// placement, clocks, and per-module parameters.
struct AcceleratorConfig {
  std::string name;
  std::uint32_t mesh_width = 2;
  std::uint32_t mesh_height = 1;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tile_coords;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mem_coords;

  /// Clock of the GPE/DNA/AGG/DNQ logic — the quantity swept in Fig 8.
  Frequency core_clock = Frequency::giga_hertz(2.4);
  /// Clock the NoC links and memory interfaces run at. Fixed across the
  /// sweep so NoC and memory bandwidth stay constant (Section VI-B).
  Frequency noc_clock = Frequency::giga_hertz(2.4);

  mem::MemParams mem_params;        // per memory node (68 GB/s each)
  noc::NocParams noc_params;        // Table IV
  TileParams tile_params;

  /// Address-space interleaving across memory nodes (page granularity so a
  /// wide feature read is one request to one controller).
  std::uint64_t interleave_bytes = 4096;

  [[nodiscard]] std::uint32_t num_tiles() const {
    return static_cast<std::uint32_t>(tile_coords.size());
  }
  [[nodiscard]] std::uint32_t num_mem_nodes() const {
    return static_cast<std::uint32_t>(mem_coords.size());
  }
  /// ALU count as Table VI counts it: 182 DNA PEs + 16 AGG ALUs per tile.
  [[nodiscard]] std::uint32_t total_alus() const {
    return num_tiles() * (tile_params.dna.num_pes() + tile_params.agg_alus);
  }
  [[nodiscard]] double total_mem_bandwidth_gbps() const {
    return mem_params.bandwidth.gbps() * num_mem_nodes();
  }

  /// noc_clock / core_clock, reduced. Throws std::invalid_argument when
  /// either clock is not a whole number of MHz.
  [[nodiscard]] ClockRatio clock_ratio() const;

  [[nodiscard]] AcceleratorConfig with_core_clock(double ghz) const {
    AcceleratorConfig c = *this;
    c.core_clock = Frequency::giga_hertz(ghz);
    return c;
  }

  /// Table VI row 1: 1 tile + 1 memory node (68 GB/s), 198 ALUs.
  [[nodiscard]] static AcceleratorConfig cpu_iso_bw();
  /// Table VI row 2: 8 tiles + 8 memory nodes (544 GB/s), 1584 ALUs.
  [[nodiscard]] static AcceleratorConfig gpu_iso_bw();
  /// Table VI row 3: 16 tiles + 8 memory nodes (544 GB/s), 3168 ALUs.
  [[nodiscard]] static AcceleratorConfig gpu_iso_flops();
};

}  // namespace gnna::accel
