// Work-item -> tile assignment for multi-tile accelerator configurations.
//
// The paper shares the work queues across all GPEs; how work items
// (vertices, or whole graphs in per-graph phases) land on tiles determines
// load balance and NoC traffic locality. partition_work() is the one split:
// the simulator executes it, the static model (accel::analysis) and the
// GV204 lint evaluate it, and the ablation benches sweep its policies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gnna::graph {

enum class PartitionPolicy : std::uint8_t {
  kRoundRobin,    // item i -> tile i % T
  kBlock,         // contiguous ranges of ceil(N/T) items
  kDegreeGreedy,  // LPT over out-degree + 1 loads
  kProfileGuided  // LPT over a prior run's measured per-item loads
};

/// Policy names as the run options spell them, in PartitionPolicy order.
inline constexpr std::string_view kPartitionNames[] = {
    "round-robin", "block", "degree-greedy", "profile-guided"};

[[nodiscard]] constexpr std::string_view partition_name(PartitionPolicy p) {
  return kPartitionNames[static_cast<std::size_t>(p)];
}

[[nodiscard]] inline std::optional<PartitionPolicy> partition_by_name(
    std::string_view name) {
  for (std::size_t i = 0; i < std::size(kPartitionNames); ++i) {
    if (kPartitionNames[i] == name) return static_cast<PartitionPolicy>(i);
  }
  return std::nullopt;
}

/// Assignment of every work item to a tile.
class Partition {
 public:
  Partition(std::vector<TileId> owner, TileId num_tiles)
      : owner_(std::move(owner)), num_tiles_(num_tiles) {}

  [[nodiscard]] TileId owner(NodeId v) const { return owner_.at(v); }
  [[nodiscard]] TileId num_tiles() const { return num_tiles_; }
  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(owner_.size());
  }

  /// Items owned by each tile, in ascending order.
  [[nodiscard]] std::vector<std::vector<NodeId>> by_tile() const {
    std::vector<std::vector<NodeId>> out(num_tiles_);
    for (NodeId v = 0; v < owner_.size(); ++v) out[owner_[v]].push_back(v);
    return out;
  }

 private:
  std::vector<TileId> owner_;
  TileId num_tiles_;
};

/// Split `num_items` work items over `num_tiles` tiles.
///
/// Block gives each tile a contiguous range of ceil(N/T) items. The other
/// policies are one greedy LPT packing ("longest processing time first"):
/// heaviest item first onto the least-loaded tile, equal loads taken in
/// ascending item order and equal tile loads resolved to the lowest tile
/// id, so the split is a pure function of the load sequence. Items without
/// a positive load (past the end of `loads`, or zero — e.g. vertices a
/// bounded profile did not capture) go round-robin over the tiles in item
/// order. Round-robin is the packing with no loads at all.
[[nodiscard]] inline Partition partition_work(
    std::size_t num_items, TileId num_tiles, PartitionPolicy policy,
    std::span<const double> loads = {}) {
  if (num_tiles == 0) throw std::invalid_argument("num_tiles must be >= 1");
  std::vector<TileId> owner(num_items, 0);
  if (policy == PartitionPolicy::kBlock) {
    const std::size_t per = (num_items + num_tiles - 1) / num_tiles;
    for (std::size_t i = 0; i < num_items; ++i) {
      owner[i] = static_cast<TileId>(i / per);
    }
    return {std::move(owner), num_tiles};
  }
  if (policy == PartitionPolicy::kRoundRobin) loads = {};
  const auto loaded = [&](std::size_t i) {
    return i < loads.size() && loads[i] > 0.0;
  };
  std::vector<NodeId> order;
  for (std::size_t i = 0; i < num_items; ++i) {
    if (loaded(i)) order.push_back(static_cast<NodeId>(i));
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return loads[a] != loads[b] ? loads[a] > loads[b] : a < b;
  });
  std::vector<double> tile_load(num_tiles, 0.0);
  for (const NodeId i : order) {
    const auto lightest = static_cast<TileId>(std::distance(
        tile_load.begin(),
        std::min_element(tile_load.begin(), tile_load.end())));
    owner[i] = lightest;
    tile_load[lightest] += loads[i];
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < num_items; ++i) {
    if (!loaded(i)) owner[i] = static_cast<TileId>(next++ % num_tiles);
  }
  return {std::move(owner), num_tiles};
}

/// Out-degree + 1 of every vertex of `graphs`, in global vertex order: the
/// per-vertex load degree-greedy packs.
[[nodiscard]] inline std::vector<double> degree_loads(
    std::span<const Graph> graphs) {
  std::vector<double> loads;
  for (const Graph& g : graphs) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      loads.push_back(static_cast<double>(g.out_degree(v)) + 1.0);
    }
  }
  return loads;
}

/// Partition `g`'s vertices: partition_work over its degree loads.
[[nodiscard]] inline Partition make_partition(const Graph& g, TileId num_tiles,
                                              PartitionPolicy policy) {
  const std::vector<double> loads =
      policy == PartitionPolicy::kDegreeGreedy
          ? degree_loads(std::span<const Graph>(&g, 1))
          : std::vector<double>{};
  return partition_work(g.num_nodes(), num_tiles, policy, loads);
}

}  // namespace gnna::graph
