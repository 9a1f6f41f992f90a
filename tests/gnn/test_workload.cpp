#include "gnn/workload.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

namespace gnna::gnn {
namespace {

graph::Dataset fixed_dataset(NodeId n, EdgeId e, std::uint32_t vf,
                             std::uint32_t ef = 0) {
  Rng rng(n * 7 + e);
  graph::Dataset ds;
  ds.spec = {"wl", 1, n, e, vf, ef, 3};
  ds.graphs.push_back(graph::generate_random_graph(rng, n, e));
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  ds.node_features.emplace_back(std::size_t{n} * vf, 0.0F);
  ds.edge_features.emplace_back(std::size_t{e} * ef, 0.0F);
  return ds;
}

TEST(Workload, GcnDenseMacsFormula) {
  const auto ds = fixed_dataset(100, 300, 16);
  const WorkProfile wp = profile_work(make_gcn(16, 3, 8), ds);
  ASSERT_EQ(wp.layers.size(), 2U);
  EXPECT_EQ(wp.layers[0].dense_macs, 100ULL * 16 * 8);
  EXPECT_EQ(wp.layers[1].dense_macs, 100ULL * 8 * 3);
}

TEST(Workload, GcnAggAddsCountEdgesAndSelf) {
  const auto ds = fixed_dataset(50, 120, 4);
  const WorkProfile wp = profile_work(make_gcn(4, 2, 4), ds);
  const std::uint64_t s = ds.undirected[0].num_edges();
  EXPECT_EQ(wp.layers[0].agg_adds, (s + 50) * 4);
}

TEST(Workload, GatEdgeMacs) {
  const auto ds = fixed_dataset(40, 80, 8);
  const WorkProfile wp = profile_work(make_gat(8, 3, 2, 4), ds);
  const std::uint64_t s = ds.undirected[0].num_edges();
  // (edges + self) * heads * 3 * head_width.
  EXPECT_EQ(wp.layers[0].edge_macs, (s + 40) * 2ULL * 3 * 4);
}

TEST(Workload, MpnnEdgeNetworkDominates) {
  const auto ds = fixed_dataset(30, 40, 5, 3);
  const WorkProfile wp = profile_work(make_mpnn(5, 3, 4, 16, 1), ds);
  const std::uint64_t s = ds.undirected[0].num_edges();
  const auto& mp = wp.layers[1];
  EXPECT_EQ(mp.edge_macs, s * (3ULL * 128 + 128ULL * 256 + 256ULL));
  EXPECT_EQ(mp.dense_macs, 30ULL * 6 * 256);
  EXPECT_GT(mp.edge_macs, mp.dense_macs);
}

TEST(Workload, PgnnAggScalesWithApplications) {
  const auto ds = fixed_dataset(30, 60, 2);
  const WorkProfile wp = profile_work(make_pgnn(2, 3, 4, 3, 1), ds);
  const std::uint64_t s = ds.undirected[0].num_edges();
  // 2^(hops-1) = 4 applications of A at width 2.
  EXPECT_EQ(wp.layers[0].agg_adds, 4 * s * 2);
  EXPECT_EQ(wp.layers[0].dense_macs, 30ULL * 4 * 2 * 3);
}

TEST(Workload, ReadoutPerGraph) {
  Rng rng(9);
  graph::Dataset ds;
  ds.spec = {"mols", 4, 20, 16, 3, 0, 7};
  for (int i = 0; i < 4; ++i) {
    ds.graphs.push_back(graph::generate_random_graph(rng, 5, 4));
    ds.undirected.push_back(ds.graphs.back().symmetrized());
    ds.node_features.emplace_back(15, 0.0F);
    ds.edge_features.emplace_back();
  }
  ModelSpec m;
  LayerSpec l;
  l.kind = LayerKind::kReadout;
  l.name = "ro";
  l.in_features = 3;
  l.out_features = 7;
  m.layers = {l};
  const WorkProfile wp = profile_work(m, ds);
  EXPECT_EQ(wp.layers[0].dense_macs, 4ULL * 3 * 7);
  EXPECT_EQ(wp.layers[0].agg_adds, 20ULL * 3);
  EXPECT_EQ(wp.layers[0].feature_write_bytes, 4ULL * 7 * 4);
}

TEST(Workload, TotalsSumLayers) {
  const auto ds = fixed_dataset(50, 100, 8);
  const WorkProfile wp = profile_work(make_gcn(8, 3, 4), ds);
  const LayerWork t = wp.totals();
  std::uint64_t macs = 0;
  std::uint64_t bytes = 0;
  for (const auto& l : wp.layers) {
    macs += l.dense_macs;
    bytes += l.total_bytes();
  }
  EXPECT_EQ(t.dense_macs, macs);
  EXPECT_EQ(t.total_bytes(), bytes);
}

TEST(Workload, LaunchesScaleWithGraphCount) {
  Rng rng(10);
  graph::Dataset one;
  one.spec = {"a", 1, 5, 4, 3, 0, 2};
  one.graphs.push_back(graph::generate_random_graph(rng, 5, 4));
  one.undirected.push_back(one.graphs[0].symmetrized());
  one.node_features.emplace_back(15, 0.0F);
  one.edge_features.emplace_back();

  graph::Dataset many;
  many.spec = {"b", 10, 50, 40, 3, 0, 2};
  for (int i = 0; i < 10; ++i) {
    many.graphs.push_back(graph::generate_random_graph(rng, 5, 4));
    many.undirected.push_back(many.graphs.back().symmetrized());
    many.node_features.emplace_back(15, 0.0F);
    many.edge_features.emplace_back();
  }
  const auto m = make_gcn(3, 2, 4);
  EXPECT_EQ(profile_work(m, many).totals().launches,
            10 * profile_work(m, one).totals().launches);
}

}  // namespace
}  // namespace gnna::gnn
