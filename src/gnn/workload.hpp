// Static work profiling: how many operations and bytes a model/dataset
// pair requires, split the way the paper splits them (Section III): dense
// vertex-local DNN compute, per-edge compute, aggregation, and traversal.
//
// The CPU/GPU baseline models (src/baseline) convert these counts into
// latency estimates; the Section II study uses the matmul views directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gnn/layer.hpp"
#include "graph/dataset.hpp"

namespace gnna::gnn {

/// Work of one lowered stage (a layer, or a sub-stage of one).
struct LayerWork {
  std::string name;

  std::uint64_t dense_macs = 0;   // projections, GRU gates, readout FCs
  std::uint64_t edge_macs = 0;    // per-edge compute (attention, edge nets)
  std::uint64_t agg_adds = 0;     // aggregation additions
  std::uint64_t launches = 0;     // framework ops / kernel launches

  std::uint64_t feature_read_bytes = 0;
  std::uint64_t feature_write_bytes = 0;
  std::uint64_t structure_bytes = 0;  // CSR traversal
  std::uint64_t weight_bytes = 0;

  [[nodiscard]] std::uint64_t total_bytes() const {
    return feature_read_bytes + feature_write_bytes + structure_bytes +
           weight_bytes;
  }
};

struct WorkProfile {
  std::vector<LayerWork> layers;

  [[nodiscard]] LayerWork totals() const {
    LayerWork t;
    t.name = "total";
    for (const auto& l : layers) {
      t.dense_macs += l.dense_macs;
      t.edge_macs += l.edge_macs;
      t.agg_adds += l.agg_adds;
      t.launches += l.launches;
      t.feature_read_bytes += l.feature_read_bytes;
      t.feature_write_bytes += l.feature_write_bytes;
      t.structure_bytes += l.structure_bytes;
      t.weight_bytes += l.weight_bytes;
    }
    return t;
  }
};

/// Count the work `model` does over `dataset` (using the symmetrized
/// graphs' real degree distributions).
[[nodiscard]] WorkProfile profile_work(const ModelSpec& model,
                                       const graph::Dataset& dataset);

}  // namespace gnna::gnn
