#include "graph/dataset.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace gnna::graph {
namespace {

/// Every vertex's neighbour list, graph by graph.
std::vector<std::vector<NodeId>> neighbour_lists(const Dataset& ds) {
  std::vector<std::vector<NodeId>> lists;
  for (const Graph& g : ds.graphs) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto nb = g.neighbors(v);
      lists.emplace_back(nb.begin(), nb.end());
    }
  }
  return lists;
}

/// Every synthetic dataset must match its declared Table V row exactly.
class DatasetTableV : public ::testing::TestWithParam<DatasetId> {};

TEST_P(DatasetTableV, GeneratedMatchesDeclaredStats) {
  const Dataset ds = make_dataset(GetParam());
  const DatasetSpec& spec = ds.spec;
  EXPECT_EQ(ds.graphs.size(), spec.num_graphs);
  EXPECT_EQ(ds.total_nodes(), spec.total_nodes);
  EXPECT_EQ(ds.total_edges(), spec.total_edges);
}

TEST_P(DatasetTableV, UndirectedVersionsPresent) {
  const Dataset ds = make_dataset(GetParam());
  ASSERT_EQ(ds.undirected.size(), ds.graphs.size());
  for (std::size_t i = 0; i < ds.graphs.size(); ++i) {
    // Symmetrization at least preserves and at most doubles the edges.
    EXPECT_GE(ds.undirected[i].num_edges(), ds.graphs[i].num_edges());
    EXPECT_LE(ds.undirected[i].num_edges(), 2U * ds.graphs[i].num_edges());
    EXPECT_EQ(ds.undirected[i].num_nodes(), ds.graphs[i].num_nodes());
  }
}

TEST_P(DatasetTableV, Deterministic) {
  const Dataset a = make_dataset(GetParam(), 123);
  const Dataset b = make_dataset(GetParam(), 123);
  EXPECT_EQ(neighbour_lists(a), neighbour_lists(b));
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetTableV, ::testing::ValuesIn(kAllDatasets),
    [](const ::testing::TestParamInfo<DatasetId>& info) {
      return dataset_spec(info.param).name;
    });

TEST(Dataset, TableVValuesVerbatim) {
  // Pin the exact Table V rows.
  const DatasetSpec& cora = dataset_spec(DatasetId::kCora);
  EXPECT_EQ(cora.total_nodes, 2708U);
  EXPECT_EQ(cora.total_edges, 5429U);
  EXPECT_EQ(cora.vertex_features, 1433U);
  EXPECT_EQ(cora.output_features, 7U);

  const DatasetSpec& cite = dataset_spec(DatasetId::kCiteseer);
  EXPECT_EQ(cite.total_nodes, 3327U);
  EXPECT_EQ(cite.total_edges, 4732U);
  EXPECT_EQ(cite.vertex_features, 3703U);

  const DatasetSpec& pub = dataset_spec(DatasetId::kPubmed);
  EXPECT_EQ(pub.total_nodes, 19717U);
  EXPECT_EQ(pub.total_edges, 44338U);
  EXPECT_EQ(pub.vertex_features, 500U);
  EXPECT_EQ(pub.output_features, 3U);

  const DatasetSpec& qm9 = dataset_spec(DatasetId::kQm9_1000);
  EXPECT_EQ(qm9.num_graphs, 1000U);
  EXPECT_EQ(qm9.total_nodes, 12314U);
  EXPECT_EQ(qm9.total_edges, 12080U);
  EXPECT_EQ(qm9.vertex_features, 13U);
  EXPECT_EQ(qm9.edge_features, 5U);
  EXPECT_EQ(qm9.output_features, 73U);

  const DatasetSpec& dblp = dataset_spec(DatasetId::kDblp1);
  EXPECT_EQ(dblp.total_nodes, 547U);
  EXPECT_EQ(dblp.total_edges, 2654U);
  EXPECT_EQ(dblp.vertex_features, 1U);
}

TEST(Dataset, PubmedSparsityMatchesPaper) {
  // "for the sparsest input (Pubmed, at 99.989% sparse)".
  const DatasetSpec& pub = dataset_spec(DatasetId::kPubmed);
  const double density = static_cast<double>(pub.total_edges) /
                         (static_cast<double>(pub.total_nodes) *
                          pub.total_nodes);
  EXPECT_NEAR(1.0 - density, 0.99989, 0.00001);
}

TEST(Dataset, Qm9GraphsAreSmall) {
  const Dataset ds = make_dataset(DatasetId::kQm9_1000);
  for (const auto& g : ds.graphs) {
    EXPECT_GE(g.num_nodes(), 12U);
    EXPECT_LE(g.num_nodes(), 13U);
  }
}

TEST(Dataset, LookupByName) {
  EXPECT_EQ(dataset_by_name("Cora"), DatasetId::kCora);
  EXPECT_EQ(dataset_by_name("QM9_1000"), DatasetId::kQm9_1000);
  EXPECT_THROW((void)dataset_by_name("nope"), std::invalid_argument);
}

TEST(Dataset, DifferentSeedsDifferentFeatures) {
  // Datasets carry no feature values: the seed shows in the edges, never
  // in the aggregate statistics.
  const Dataset a = make_dataset(DatasetId::kCora, 1);
  const Dataset b = make_dataset(DatasetId::kCora, 2);
  EXPECT_NE(neighbour_lists(a), neighbour_lists(b));
  EXPECT_EQ(a.total_edges(), b.total_edges());
}

}  // namespace
}  // namespace gnna::graph
