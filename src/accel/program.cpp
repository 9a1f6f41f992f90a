#include "accel/program.hpp"

#include <algorithm>
#include <cassert>

namespace gnna::accel {

std::size_t CompiledProgram::graph_of(NodeId v) const {
  assert(!graphs.empty());
  // graphs are sorted by node_offset; find the last layout with offset <= v.
  auto it = std::upper_bound(
      graphs.begin(), graphs.end(), v,
      [](NodeId value, const GraphLayout& g) { return value < g.node_offset; });
  assert(it != graphs.begin());
  return static_cast<std::size_t>(std::distance(graphs.begin(), it) - 1);
}

graph::Partition phase_partition(const CompiledProgram& prog,
                                 const PhaseSpec& phase,
                                 const graph::Dataset* ds,
                                 std::uint32_t num_tiles,
                                 graph::PartitionPolicy policy,
                                 std::span<const double> profile) {
  std::vector<double> degrees;
  if (policy == graph::PartitionPolicy::kDegreeGreedy && phase.per_graph) {
    for (const GraphLayout& g : prog.graphs) {
      degrees.push_back(static_cast<double>(g.num_nodes) + g.num_edges);
    }
  } else if (policy == graph::PartitionPolicy::kDegreeGreedy && ds != nullptr) {
    degrees = graph::degree_loads(ds->undirected);
  }
  if (phase.per_graph) profile = {};
  return graph::partition_work(
      phase.per_graph ? prog.graphs.size() : prog.total_vertices(),
      static_cast<TileId>(num_tiles), policy,
      policy == graph::PartitionPolicy::kProfileGuided ? profile : degrees);
}

}  // namespace gnna::accel
