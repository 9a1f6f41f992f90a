#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace gnna::graph {

Graph Graph::symmetrized() const {
  GraphBuilder b(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (const NodeId u : neighbors(v)) {
      if (u == v) continue;  // collapse self-loops out of the symmetric part
      b.add_edge(v, u);
      b.add_edge(u, v);
    }
  }
  return std::move(b).build(/*dedupe=*/true);
}

std::uint32_t Graph::max_out_degree() const {
  std::uint32_t m = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) m = std::max(m, out_degree(v));
  return m;
}

double Graph::sparsity() const {
  const double n = num_nodes();
  if (n == 0) return 1.0;
  return 1.0 - static_cast<double>(num_edges()) / (n * n);
}

void GraphBuilder::add_edge(NodeId src, NodeId dst) {
  if (src >= num_nodes_ || dst >= num_nodes_) {
    throw std::out_of_range("GraphBuilder::add_edge: endpoint out of range");
  }
  edges_.emplace_back(src, dst);
}

Graph GraphBuilder::build(bool dedupe) && {
  std::sort(edges_.begin(), edges_.end());
  if (dedupe) {
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  }

  Graph g;
  g.row_ptr_.assign(num_nodes_ + 1, 0);
  g.col_idx_.reserve(edges_.size());
  for (const auto& [src, dst] : edges_) {
    ++g.row_ptr_[src + 1];
    g.col_idx_.push_back(dst);
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    g.row_ptr_[v + 1] += g.row_ptr_[v];
  }
  return g;
}

}  // namespace gnna::graph
