// Layer-level intermediate representation of a GNN model.
//
// The accelerator's ProgramCompiler (src/accel/compiler.*) lowers each layer
// to the per-vertex micro-op programs the GPE executes; the simulator times
// those programs to produce the paper's results. The IR carries only what
// sets the traffic and work of a layer (kind, widths, normalization, heads,
// hops), never values.
//
// The IR deliberately mirrors how the paper decomposes GNNs (Section III):
// graph traversal, DNN computation (vertex-local dense ops), and
// aggregation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gnna::gnn {

/// What a layer does with each vertex's neighborhood.
enum class LayerKind : std::uint8_t {
  kProject,       // per-vertex FC, no neighbor exchange (MPNN embedding)
  kConv,          // graph convolution: aggregate projected neighbors (GCN)
  kAttentionConv, // convolution with per-edge attention coefficients (GAT)
  kMessagePass,   // edge-network messages + GRU state update (MPNN)
  kMultiHopConv,  // sum over powers of A (PGNN / LGNN power term)
  kReadout,       // graph-level reduction + FC (MPNN output)
};

/// Neighborhood normalization applied during aggregation.
enum class AggNorm : std::uint8_t {
  kSum,      // plain sum
  kMean,     // 1/deg
  kSymNorm,  // 1/sqrt(deg_v * deg_u)  (GCN renormalization trick)
};

/// One layer of the model.
struct LayerSpec {
  std::string name;
  LayerKind kind = LayerKind::kConv;
  std::uint32_t in_features = 1;
  std::uint32_t out_features = 1;
  AggNorm norm = AggNorm::kSum;
  bool include_self = true;  // add the vertex itself to its neighborhood

  // kAttentionConv: number of attention heads; out_features is the *total*
  // width (heads * per-head width), per-head width = out_features / heads.
  std::uint32_t heads = 1;

  // kMessagePass: edge-feature width consumed by the edge network, and the
  // hidden width of the two-layer edge MLP (Gilmer's "edge network")
  // producing the d x d message matrix.
  std::uint32_t edge_features = 0;
  std::uint32_t edge_hidden = 128;

  // kMultiHopConv: number of adjacency-power terms; term j applies A^(2^j),
  // j = 0..hops-1, plus a self term H * W_self.
  std::uint32_t hops = 1;

  [[nodiscard]] std::uint32_t head_width() const {
    return heads == 0 ? out_features : out_features / heads;
  }
};

/// A whole model: an ordered sequence of layers (Algorithm 1's `layers`).
struct ModelSpec {
  std::string name;
  std::vector<LayerSpec> layers;

  [[nodiscard]] std::uint32_t input_features() const {
    return layers.empty() ? 0 : layers.front().in_features;
  }
  [[nodiscard]] std::uint32_t output_features() const {
    return layers.empty() ? 0 : layers.back().out_features;
  }
};

}  // namespace gnna::gnn
