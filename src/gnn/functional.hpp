// Functional (value-level) execution of the GNN IR.
//
// This path computes what the model actually outputs, independent of any
// timing model (the accelerator simulator models timing only and carries
// no values). Tests compare it against hand-written references (closed
// forms, dense matrix powers, naive attention) to pin down each layer's
// semantics.
#pragma once

#include <optional>

#include "gnn/layer.hpp"
#include "gnn/weights.hpp"
#include "graph/dataset.hpp"
#include "graph/graph.hpp"
#include "linalg/matrix.hpp"

namespace gnna::gnn {

class FunctionalExecutor {
 public:
  explicit FunctionalExecutor(const ModelSpec& spec)
      : spec_(spec), weights_(make_weights(spec)) {}

  FunctionalExecutor(const ModelSpec& spec, ModelWeights weights)
      : spec_(spec), weights_(std::move(weights)) {}

  /// Run the model on one graph. `x` is [num_nodes x in_features];
  /// `edge_feats` (may be empty) is [num_edges x edge_features] in the CSR
  /// order of `g`. Returns [num_nodes x out] or [1 x out] if the model ends
  /// in a readout layer.
  [[nodiscard]] linalg::Matrix run(const graph::Graph& g,
                                   const linalg::Matrix& x,
                                   const linalg::Matrix& edge_feats) const;

  /// Run the model on every graph of a dataset; returns per-graph outputs
  /// stacked row-wise ([sum(rows_i) x out]).
  [[nodiscard]] linalg::Matrix run_dataset(const graph::Dataset& ds) const;

  /// Apply a single layer (exposed for layer-level unit tests).
  [[nodiscard]] linalg::Matrix run_layer(std::size_t layer_index,
                                         const graph::Graph& g,
                                         const linalg::Matrix& h,
                                         const linalg::Matrix& edge_feats) const;

  [[nodiscard]] const ModelSpec& spec() const { return spec_; }
  [[nodiscard]] const ModelWeights& weights() const { return weights_; }

 private:
  ModelSpec spec_;
  ModelWeights weights_;
};

}  // namespace gnna::gnn
