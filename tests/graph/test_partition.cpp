#include "graph/partition.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <tuple>

#include "common/rng.hpp"
#include "graph/generator.hpp"

namespace gnna::graph {
namespace {

Graph test_graph() {
  Rng rng(21);
  return generate_citation_graph(rng, 200, 800);
}

using Param = std::tuple<PartitionPolicy, TileId>;

class PartitionAll : public ::testing::TestWithParam<Param> {};

TEST_P(PartitionAll, EveryVertexAssignedInRange) {
  const auto [policy, tiles] = GetParam();
  const Graph g = test_graph();
  const Partition p = make_partition(g, tiles, policy);
  EXPECT_EQ(p.num_nodes(), g.num_nodes());
  EXPECT_EQ(p.num_tiles(), tiles);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_LT(p.owner(v), tiles);
}

TEST_P(PartitionAll, ByTileCoversExactlyOnce) {
  const auto [policy, tiles] = GetParam();
  const Graph g = test_graph();
  const Partition p = make_partition(g, tiles, policy);
  const auto buckets = p.by_tile();
  ASSERT_EQ(buckets.size(), tiles);
  NodeId total = 0;
  for (const auto& b : buckets) total += static_cast<NodeId>(b.size());
  EXPECT_EQ(total, g.num_nodes());
}

TEST_P(PartitionAll, RoughlyBalancedVertexCounts) {
  const auto [policy, tiles] = GetParam();
  const Graph g = test_graph();
  const auto buckets = make_partition(g, tiles, policy).by_tile();
  const std::size_t per = (g.num_nodes() + tiles - 1) / tiles;
  if (policy == PartitionPolicy::kRoundRobin ||
      policy == PartitionPolicy::kBlock) {
    // Block partitions round the chunk size up, so the last tile may run
    // short; both policies are bounded above by the chunk size.
    for (const auto& b : buckets) EXPECT_LE(b.size(), per);
  }
  if (policy == PartitionPolicy::kRoundRobin) {
    for (const auto& b : buckets) EXPECT_GE(b.size() + 1, per);
  }
  if (policy == PartitionPolicy::kDegreeGreedy) {
    // Greedy balances degree load, not counts; just require non-degenerate
    // spread when there is enough work to go around.
    std::size_t nonempty = 0;
    for (const auto& b : buckets) nonempty += !b.empty();
    EXPECT_EQ(nonempty, buckets.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndTiles, PartitionAll,
    ::testing::Combine(::testing::Values(PartitionPolicy::kRoundRobin,
                                         PartitionPolicy::kBlock,
                                         PartitionPolicy::kDegreeGreedy),
                       ::testing::Values<TileId>(1, 2, 8, 16)));

TEST(Partition, RoundRobinPattern) {
  const Graph g = test_graph();
  const Partition p = make_partition(g, 4, PartitionPolicy::kRoundRobin);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(p.owner(v), v % 4);
  }
}

TEST(Partition, BlockIsContiguous) {
  const Graph g = test_graph();
  const Partition p = make_partition(g, 4, PartitionPolicy::kBlock);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    EXPECT_GE(p.owner(v), p.owner(v - 1));
  }
}

TEST(Partition, DegreeGreedyBalancesLoad) {
  const Graph g = test_graph();
  const Partition p = make_partition(g, 4, PartitionPolicy::kDegreeGreedy);
  std::vector<std::uint64_t> load(4, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    load[p.owner(v)] += g.out_degree(v) + 1;
  }
  const auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  // Greedy packing keeps the spread tight relative to the heaviest vertex.
  EXPECT_LE(*mx - *mn, static_cast<std::uint64_t>(g.max_out_degree()) + 1);
}

TEST(Partition, ZeroTilesThrows) {
  const Graph g = test_graph();
  EXPECT_THROW(make_partition(g, 0, PartitionPolicy::kRoundRobin),
               std::invalid_argument);
}

TEST(Partition, ByTileIsAscendingWithinEachBucket) {
  const Graph g = test_graph();
  for (const PartitionPolicy policy :
       {PartitionPolicy::kRoundRobin, PartitionPolicy::kBlock,
        PartitionPolicy::kDegreeGreedy, PartitionPolicy::kProfileGuided}) {
    const auto buckets = make_partition(g, 4, policy).by_tile();
    for (const auto& b : buckets) {
      EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
      EXPECT_EQ(std::adjacent_find(b.begin(), b.end()), b.end());
    }
  }
}

TEST(Partition, ProfileGuidedWithoutLoadsFallsBackToRoundRobin) {
  // make_partition has no profile to consume; the policy must degrade to
  // the round-robin baseline the profiling pass itself uses.
  const Graph g = test_graph();
  const Partition p = make_partition(g, 4, PartitionPolicy::kProfileGuided);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(p.owner(v), v % 4);
  }
}

TEST(Partition, DegreeGreedyIsLptOverDegreeLoads) {
  // Degree-greedy is LPT over out-degree + 1, and so the same packing as
  // profile-guided over those loads.
  const Graph g = test_graph();
  const std::vector<double> loads =
      degree_loads(std::span<const Graph>(&g, 1));
  ASSERT_EQ(loads.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(loads[v], g.out_degree(v) + 1.0);
  }
  for (const TileId tiles : {TileId{1}, TileId{3}, TileId{8}}) {
    // Reference LPT: heaviest vertex first (lowest id on ties) onto the
    // least-loaded tile (lowest id on ties).
    std::vector<NodeId> order(g.num_nodes());
    std::iota(order.begin(), order.end(), NodeId{0});
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return loads[a] > loads[b];
    });
    std::vector<double> tile_load(tiles, 0.0);
    std::vector<TileId> expected(g.num_nodes());
    for (const NodeId v : order) {
      TileId best = 0;
      for (TileId t = 1; t < tiles; ++t) {
        if (tile_load[t] < tile_load[best]) best = t;
      }
      expected[v] = best;
      tile_load[best] += loads[v];
    }
    const Partition greedy =
        make_partition(g, tiles, PartitionPolicy::kDegreeGreedy);
    const Partition profiled = partition_work(
        g.num_nodes(), tiles, PartitionPolicy::kProfileGuided, loads);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(greedy.owner(v), expected[v]) << "vertex " << v;
      EXPECT_EQ(profiled.owner(v), expected[v]) << "vertex " << v;
    }
  }
}

TEST(Partition, NamesRoundTrip) {
  for (const PartitionPolicy p :
       {PartitionPolicy::kRoundRobin, PartitionPolicy::kBlock,
        PartitionPolicy::kDegreeGreedy, PartitionPolicy::kProfileGuided}) {
    EXPECT_EQ(partition_by_name(partition_name(p)), p);
  }
  EXPECT_FALSE(partition_by_name("hash").has_value());
}

Partition profile_partition(std::size_t n, TileId tiles,
                            const std::vector<double>& loads) {
  return partition_work(n, tiles, PartitionPolicy::kProfileGuided, loads);
}

TEST(ProfilePartition, LptBalancesMeasuredLoads) {
  // Loads 8,7,..,1 over 2 tiles: LPT packs {8,5,4,1} vs {7,6,3,2} = 18/18.
  const std::vector<double> loads = {8, 7, 6, 5, 4, 3, 2, 1};
  const Partition p = profile_partition(8, 2, loads);
  std::vector<double> tile_load(2, 0.0);
  for (NodeId v = 0; v < 8; ++v) tile_load[p.owner(v)] += loads[v];
  EXPECT_DOUBLE_EQ(tile_load[0], 18.0);
  EXPECT_DOUBLE_EQ(tile_load[1], 18.0);
  // Heaviest vertex (id 0, load 8) seeds the lowest tile id.
  EXPECT_EQ(p.owner(0), 0);
}

TEST(ProfilePartition, UnprofiledVerticesRoundRobin) {
  // Only vertices 0..3 carry loads; 4..11 are missing from the profile
  // (loads vector shorter than n) and must spread round-robin.
  const std::vector<double> loads = {4, 3, 2, 1};
  const Partition p = profile_partition(12, 4, loads);
  std::vector<std::size_t> count(4, 0);
  for (NodeId v = 4; v < 12; ++v) ++count[p.owner(v)];
  for (const std::size_t c : count) EXPECT_EQ(c, 2U);
}

TEST(ProfilePartition, ZeroLoadEntriesCountAsUnprofiled) {
  // Zero entries (evicted from the bounded top-K table) take the fallback
  // path too, not a tile-0 pile-up.
  // All zero, the split is exactly round-robin.
  const std::vector<double> loads = {0, 0, 0, 0, 0, 0, 0, 0};
  const Partition p = profile_partition(8, 4, loads);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(p.owner(v), v % 4);
}

TEST(ProfilePartition, EmptyLoadsIsPureRoundRobin) {
  const Partition p = profile_partition(10, 3, {});
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(p.owner(v), v % 3);
  }
}

TEST(ProfilePartition, ZeroTilesThrows) {
  EXPECT_THROW(profile_partition(4, 0, {1, 2, 3, 4}),
               std::invalid_argument);
}

}  // namespace
}  // namespace gnna::graph
