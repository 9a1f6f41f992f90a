#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace gnna::graph {
namespace {

Graph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  return std::move(b).build();
}

/// The out-neighbours of `v`, in CSR order.
std::vector<NodeId> row(const Graph& g, NodeId v) {
  const auto n = g.neighbors(v);
  return {n.begin(), n.end()};
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0U);
  EXPECT_EQ(g.num_edges(), 0U);
}

TEST(Graph, BasicCounts) {
  const Graph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4U);
  EXPECT_EQ(g.num_edges(), 4U);
}

TEST(Graph, NeighborsSorted) {
  const Graph g = diamond();
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2U);
  EXPECT_EQ(n0[0], 1U);
  EXPECT_EQ(n0[1], 2U);
  EXPECT_TRUE(g.neighbors(3).empty());
}

TEST(Graph, OutDegree) {
  const Graph g = diamond();
  EXPECT_EQ(g.out_degree(0), 2U);
  EXPECT_EQ(g.out_degree(1), 1U);
  EXPECT_EQ(g.out_degree(3), 0U);
  EXPECT_EQ(g.max_out_degree(), 2U);
}

TEST(Graph, HasEdge) {
  const Graph g = diamond();
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(row(g, 1), (std::vector<NodeId>{3}));  // directed: no 1 -> 0
  EXPECT_EQ(row(g, 2), (std::vector<NodeId>{3}));
}

TEST(Graph, EdgeIndexMatchesCsr) {
  const Graph g = diamond();
  EXPECT_EQ(g.edge_index(0, 0), 0U);
  EXPECT_EQ(g.edge_index(0, 1), 1U);
  EXPECT_EQ(g.edge_index(1, 0), 2U);
}

TEST(GraphBuilder, DedupeCollapsesDuplicates) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const Graph g = std::move(b).build(/*dedupe=*/true);
  EXPECT_EQ(g.num_edges(), 2U);
}

TEST(GraphBuilder, NoDedupeKeepsDuplicates) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build(/*dedupe=*/false);
  EXPECT_EQ(g.num_edges(), 2U);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(b.add_edge(3, 0), std::out_of_range);
}

TEST(GraphBuilder, UndirectedEdgeAddsBoth) {
  GraphBuilder b(2);
  b.add_undirected_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(row(g, 1), (std::vector<NodeId>{0}));
}

TEST(Graph, SymmetrizedAddsReverseEdges) {
  const Graph g = diamond().symmetrized();
  EXPECT_EQ(g.num_edges(), 8U);
  EXPECT_EQ(row(g, 1), (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(row(g, 3), (std::vector<NodeId>{1, 2}));
}

TEST(Graph, SymmetrizedIdempotent) {
  const Graph s1 = diamond().symmetrized();
  const Graph s2 = s1.symmetrized();
  EXPECT_EQ(s1.num_edges(), s2.num_edges());
}

TEST(Graph, SymmetrizedDropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build().symmetrized();
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(g.num_edges(), 2U);
}

TEST(Graph, Sparsity) {
  const Graph g = diamond();
  EXPECT_DOUBLE_EQ(g.sparsity(), 1.0 - 4.0 / 16.0);
}

TEST(Graph, RowPtrConsistency) {
  const Graph g = diamond();
  const auto rp = g.row_ptr();
  ASSERT_EQ(rp.size(), 5U);
  EXPECT_EQ(rp.front(), 0U);
  EXPECT_EQ(rp.back(), g.num_edges());
  for (std::size_t i = 1; i < rp.size(); ++i) EXPECT_LE(rp[i - 1], rp[i]);
}

}  // namespace
}  // namespace gnna::graph
