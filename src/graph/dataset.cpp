#include "graph/dataset.hpp"

#include <array>
#include <stdexcept>

#include "common/rng.hpp"
#include "graph/generator.hpp"

namespace gnna::graph {
namespace {

const std::array<DatasetSpec, 5>& all_specs() {
  // Exactly Table V of the paper.
  static const std::array<DatasetSpec, 5> specs = {{
      {"Cora", 1, 2708, 5429, 1433, 0, 7},
      {"Citeseer", 1, 3327, 4732, 3703, 0, 6},
      {"Pubmed", 1, 19717, 44338, 500, 0, 3},
      {"QM9_1000", 1000, 12314, 12080, 13, 5, 73},
      // DBLP has no native features; PGNN uses the vertex degree as its one.
      {"DBLP_1", 1, 547, 2654, 1, 0, 3},
  }};
  return specs;
}

}  // namespace

const DatasetSpec& dataset_spec(DatasetId id) {
  return all_specs().at(static_cast<std::size_t>(id));
}

DatasetId dataset_by_name(const std::string& name) {
  for (const DatasetId id : kAllDatasets) {
    if (dataset_spec(id).name == name) return id;
  }
  throw std::invalid_argument("unknown dataset: " + name);
}

Dataset make_dataset(DatasetId id, std::uint64_t seed) {
  const DatasetSpec& spec = dataset_spec(id);
  Rng rng(seed ^ (static_cast<std::uint64_t>(id) + 1) * 0xA24BAED4963EE407ULL);

  Dataset ds;
  ds.spec = spec;

  switch (id) {
    case DatasetId::kCora:
    case DatasetId::kCiteseer:
    case DatasetId::kPubmed: {
      ds.graphs.push_back(generate_citation_graph(rng, spec.total_nodes,
                                                  spec.total_edges));
      break;
    }
    case DatasetId::kQm9_1000: {
      // Spread the exact Table V totals across the 1000 molecules:
      // 314 molecules get 13 atoms (12314 = 1000*12 + 314) and 80 get 13
      // bonds (12080 = 1000*12 + 80); the rest get 12 of each.
      const std::uint32_t g = spec.num_graphs;
      const NodeId node_base = spec.total_nodes / g;
      const NodeId node_extra = spec.total_nodes % g;
      const EdgeId edge_base = spec.total_edges / g;
      const EdgeId edge_extra = spec.total_edges % g;
      for (std::uint32_t i = 0; i < g; ++i) {
        const NodeId n = node_base + (i < node_extra ? 1 : 0);
        const EdgeId e = edge_base + (i < edge_extra ? 1 : 0);
        ds.graphs.push_back(generate_molecule_graph(rng, n, e));
      }
      break;
    }
    case DatasetId::kDblp1: {
      // Three communities matching the 3 output classes (community labels).
      ds.graphs.push_back(generate_community_graph(
          rng, spec.total_nodes, spec.total_edges, /*num_communities=*/3));
      break;
    }
  }

  ds.undirected.reserve(ds.graphs.size());
  for (const auto& gph : ds.graphs) ds.undirected.push_back(gph.symmetrized());

  return ds;
}

}  // namespace gnna::graph
