// NN-Dataflow-like mapping model for an Eyeriss-style spatial array.
//
// The paper uses NN-Dataflow [6] to (a) model a GCN running on a plain DNN
// accelerator (Section II: Table II latencies, Fig 2 bandwidth/utilization)
// and (b) size the latency-throughput model of the DNA unit inside each
// accelerator tile. We reproduce both uses with a small analytical mapper:
// every GNN compute step is expressed as a (possibly sparse-weighted)
// matmul M x K x N, and the mapper searches a handful of canonical
// dataflows (output-stationary, weight-stationary, reduction-spread) for
// the one with the lowest latency under the Table I array configuration,
// reporting compute cycles, DRAM traffic and PE utilization, with separate
// "useful" (nonzero-operand) accounting for sparse weights.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "common/units.hpp"

namespace gnna::dataflow {

/// Table I: configuration of the Eyeriss-like spatial array.
struct SpatialArrayConfig {
  std::uint32_t pe_rows = 13;
  std::uint32_t pe_cols = 14;
  std::uint32_t register_file_bytes = 512;
  std::uint32_t global_buffer_bytes = 108 * 1024;
  std::uint32_t word_bytes = 4;  // 32-bit fixed point

  [[nodiscard]] static SpatialArrayConfig eyeriss() { return {}; }

  [[nodiscard]] constexpr std::uint32_t num_pes() const {
    return pe_rows * pe_cols;
  }
};

/// A matmul workload: C[M x N] = A[M x K (dense)] * W[K x N].
/// `weight_density` < 1 marks W as sparse (e.g. a graph adjacency matrix
/// used as convolution weights, the Section II trick); the dense scheduler
/// still *schedules* every entry — that is exactly the inefficiency the
/// paper measures — but useful_* stats count only nonzero work.
struct MatmulShape {
  std::uint64_t m = 1;
  std::uint64_t k = 1;
  std::uint64_t n = 1;
  double weight_density = 1.0;

  [[nodiscard]] constexpr std::uint64_t total_macs() const {
    return m * k * n;
  }
  [[nodiscard]] constexpr std::uint64_t useful_macs() const {
    return static_cast<std::uint64_t>(
        static_cast<double>(total_macs()) * weight_density);
  }
};

/// Largest m*k*n a shape may have, each dimension counted as at least 1,
/// as the mapper counts it: Mapper::map_with throws on a larger one and
/// ir::parse refuses one. The built-in benchmarks' largest is 2^19.
inline constexpr std::uint64_t kMaxShapeMacs = std::uint64_t{1} << 48;

/// True when `s`'s m*k*n, each dimension counted as at least 1, is at most
/// kMaxShapeMacs.
[[nodiscard]] bool within_mac_cap(const MatmulShape& s);

/// The dataflows the mapping search considers.
enum class Dataflow : std::uint8_t {
  kOutputStationary,  // outputs pinned to PEs, K streamed
  kWeightStationary,  // weight tile pinned, inputs streamed
  kReductionSpread,   // K spread over the whole array (adder-tree style)
};

[[nodiscard]] std::string to_string(Dataflow df);

/// Result of mapping one matmul onto the array.
struct MappingStats {
  Dataflow dataflow = Dataflow::kOutputStationary;

  std::uint64_t total_macs = 0;   // scheduled (dense) MACs
  std::uint64_t useful_macs = 0;  // MACs on nonzero weight entries

  std::uint64_t compute_cycles = 0;  // array-limited cycles

  std::uint64_t dram_bytes_total = 0;    // scheduled off-chip traffic
  std::uint64_t dram_bytes_weights = 0;  // weight-stream share of the total
  std::uint64_t dram_bytes_useful = 0;   // nonzero weights + dense in/out

  /// Fraction of PE-cycles doing *useful* MACs, at unlimited bandwidth.
  [[nodiscard]] double pe_utilization_useful(
      const SpatialArrayConfig& cfg) const;
  /// Fraction of PE-cycles doing scheduled (dense) MACs.
  [[nodiscard]] double pe_utilization_total(
      const SpatialArrayConfig& cfg) const;

  /// End-to-end latency in cycles at clock `clk`, optionally constrained by
  /// off-chip bandwidth `bw` (std::nullopt = unlimited). Compute and memory
  /// overlap perfectly, so latency = max(compute, memory) — the same
  /// optimistic overlap NN-Dataflow assumes.
  [[nodiscard]] std::uint64_t latency_cycles(Frequency clk,
                                             std::optional<Bandwidth> bw) const;

  /// Accumulate another layer's stats (for whole-network totals).
  MappingStats& operator+=(const MappingStats& other);
};

/// Maps matmuls onto the spatial array.
class Mapper {
 public:
  explicit Mapper(SpatialArrayConfig cfg) : cfg_(cfg) {}

  /// Search the canonical dataflows and return the best mapping
  /// (lowest bandwidth-limited latency, compute as tie-break).
  [[nodiscard]] MappingStats map(const MatmulShape& shape,
                                 std::optional<Bandwidth> bw,
                                 Frequency clk) const;

  /// Evaluate one specific dataflow (used by tests and the ablation bench).
  /// Throws std::invalid_argument on a shape above kMaxShapeMacs, where
  /// the traffic sums would wrap.
  [[nodiscard]] MappingStats map_with(const MatmulShape& shape,
                                      Dataflow df) const;

  [[nodiscard]] const SpatialArrayConfig& config() const { return cfg_; }

 private:
  SpatialArrayConfig cfg_;
};

}  // namespace gnna::dataflow
