// Compressed-sparse-row graph structure used throughout the simulator.
//
// Graphs are immutable after construction (built via GraphBuilder), which
// lets every component share one instance by reference. Edges are directed;
// models that need undirected neighborhoods (GCN/GAT graph convolutions)
// call symmetrized() once and cache the result in the Dataset.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace gnna::graph {

class GraphBuilder;

/// Immutable directed graph in CSR form.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(row_ptr_.empty() ? 0 : row_ptr_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(col_idx_.size());
  }

  /// Out-neighbors of `v`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    return {col_idx_.data() + row_ptr_[v],
            col_idx_.data() + row_ptr_[v + 1]};
  }

  [[nodiscard]] std::uint32_t out_degree(NodeId v) const {
    return row_ptr_[v + 1] - row_ptr_[v];
  }

  /// Index into edge-parallel arrays for the e-th out-edge of `v`.
  [[nodiscard]] EdgeId edge_index(NodeId v, std::uint32_t e) const {
    return row_ptr_[v] + e;
  }

  [[nodiscard]] std::span<const EdgeId> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const NodeId> col_idx() const { return col_idx_; }

  /// Undirected version: every edge u->v yields both u->v and v->u;
  /// duplicates and self-loops are collapsed.
  [[nodiscard]] Graph symmetrized() const;

  [[nodiscard]] std::uint32_t max_out_degree() const;

  /// Fraction of zero entries in the dense N x N adjacency matrix.
  [[nodiscard]] double sparsity() const;

 private:
  friend class GraphBuilder;

  std::vector<EdgeId> row_ptr_;  // size num_nodes + 1
  std::vector<NodeId> col_idx_;  // size num_edges, sorted within each row
};

/// Accumulates an edge list, then produces a CSR Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Add a directed edge. Out-of-range endpoints are rejected (throws
  /// std::out_of_range) — graph generators must never emit them silently.
  void add_edge(NodeId src, NodeId dst);

  /// Add both directions.
  void add_undirected_edge(NodeId u, NodeId v) {
    add_edge(u, v);
    add_edge(v, u);
  }

  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Build the CSR. `dedupe` collapses duplicate (src, dst) pairs.
  [[nodiscard]] Graph build(bool dedupe = true) &&;

 private:
  NodeId num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace gnna::graph
