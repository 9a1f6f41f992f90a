// Evaluation datasets (Table V) and their synthetic stand-ins.
//
// A Dataset bundles one or more graphs with the declared Table V statistics.
// The simulator is timing-only: feature widths come from the spec, and no
// feature values are generated. make_dataset() is deterministic: the same
// DatasetId + seed always produces bit-identical graphs, so every bench and
// test in the repo sees the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gnna::graph {

enum class DatasetId : std::uint8_t {
  kCora,
  kCiteseer,
  kPubmed,
  kQm9_1000,
  kDblp1,
};

/// All five evaluation datasets in paper order.
inline constexpr DatasetId kAllDatasets[] = {
    DatasetId::kCora, DatasetId::kCiteseer, DatasetId::kPubmed,
    DatasetId::kQm9_1000, DatasetId::kDblp1};

/// One row of Table V.
struct DatasetSpec {
  std::string name;
  std::uint32_t num_graphs = 0;
  NodeId total_nodes = 0;
  EdgeId total_edges = 0;
  std::uint32_t vertex_features = 0;
  std::uint32_t edge_features = 0;
  std::uint32_t output_features = 0;
};

/// Declared statistics for `id` (exactly Table V).
[[nodiscard]] const DatasetSpec& dataset_spec(DatasetId id);

[[nodiscard]] DatasetId dataset_by_name(const std::string& name);

/// A generated dataset. `graphs[i]` holds the directed structure;
/// `undirected[i]` the symmetrized version used by graph convolutions.
struct Dataset {
  DatasetSpec spec;
  std::vector<Graph> graphs;
  std::vector<Graph> undirected;
  // Feature values: hand-built datasets may fill these; nothing reads them.
  std::vector<std::vector<float>> node_features;
  std::vector<std::vector<float>> edge_features;

  [[nodiscard]] NodeId total_nodes() const {
    NodeId n = 0;
    for (const auto& g : graphs) n += g.num_nodes();
    return n;
  }
  [[nodiscard]] EdgeId total_edges() const {
    EdgeId e = 0;
    for (const auto& g : graphs) e += g.num_edges();
    return e;
  }
};

/// Generate the synthetic stand-in for `id`: its graphs only, with no
/// feature values. The defaults reproduce the exact Table V counts; the seed
/// only varies edge placement, never the aggregate statistics.
[[nodiscard]] Dataset make_dataset(DatasetId id, std::uint64_t seed = 2020);

}  // namespace gnna::graph
