#include "accel/program.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "accel/dnq.hpp"

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

std::vector<std::uint64_t> walk_counts(const graph::Dataset& ds,
                                       std::uint32_t len) {
  constexpr std::uint64_t kMaxWalks = 50'000'000;
  NodeId total = 0;
  for (const auto& g : ds.graphs) total += g.num_nodes();
  std::vector<std::uint64_t> cur(total, 1);
  std::vector<std::uint64_t> next(total, 0);
  for (std::uint32_t step = 0; step < len; ++step) {
    std::uint64_t grand_total = 0;
    NodeId off = 0;
    for (const graph::Graph& g : ds.undirected) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        std::uint64_t acc = 0;
        for (const NodeId u : g.neighbors(v)) acc += cur[off + u];
        next[off + v] = acc;
        grand_total += acc;
      }
      off += g.num_nodes();
    }
    if (grand_total > kMaxWalks) {
      throw std::invalid_argument(
          "multi-hop lowering: walk tree too large to simulate (" +
          std::to_string(grand_total) + " walks)");
    }
    std::swap(cur, next);
  }
  return cur;
}

PhaseFootprint phase_footprint(const PhaseSpec& phase, const TileParams& tp) {
  std::uint64_t dnq0 = 0;
  switch (phase.kind) {
    case PhaseKind::kGatherAggregate:
      if (phase.has_dna()) dnq0 = phase.agg_width_words;
      break;
    case PhaseKind::kEdgeDnaAggregate:
      // The neighbor vector and the GPE's copy, then the extras.
      dnq0 = std::uint64_t{phase.gather.width_words} +
             phase.gpe_words_per_entry;
      [[fallthrough]];
    case PhaseKind::kProject:
      for (const BufferRef& b : phase.extra_inputs) dnq0 += b.width_words;
      break;
  }
  const auto bus_words = [](std::uint64_t words) {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        words, std::numeric_limits<std::uint32_t>::max()));
  };

  PhaseFootprint fp;
  fp.dnq0_entry_words = bus_words(dnq0);
  if (phase.has_dna2()) {
    fp.dnq1_entry_words = bus_words(std::uint64_t{phase.agg_width_words} +
                                    phase.dna2_gpe_words);
  }
  fp.agg_entry_words = phase.agg_width_words;
  fp.dnq0_bytes = phase.has_dna2() ? Dnq::queue0_split_bytes(tp)
                                   : tp.dnq_data_bytes;
  fp.dnq1_bytes = tp.dnq_data_bytes - fp.dnq0_bytes;
  fp.agg_bytes = tp.agg_data_bytes;
  return fp;
}

}  // namespace gnna::accel
