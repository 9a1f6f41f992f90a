#include "gnn/model.hpp"

#include <stdexcept>

namespace gnna::gnn {

ModelSpec make_gcn(std::uint32_t in_features, std::uint32_t out_features,
                   std::uint32_t hidden) {
  ModelSpec m;
  m.name = "GCN";
  LayerSpec l1;
  l1.name = "gc1";
  l1.kind = LayerKind::kConv;
  l1.in_features = in_features;
  l1.out_features = hidden;
  l1.norm = AggNorm::kSymNorm;
  l1.include_self = true;
  LayerSpec l2 = l1;
  l2.name = "gc2";
  l2.in_features = hidden;
  l2.out_features = out_features;
  m.layers = {l1, l2};
  return m;
}

ModelSpec make_gat(std::uint32_t in_features, std::uint32_t out_features,
                   std::uint32_t heads, std::uint32_t head_width) {
  ModelSpec m;
  m.name = "GAT";
  LayerSpec l1;
  l1.name = "gat1";
  l1.kind = LayerKind::kAttentionConv;
  l1.in_features = in_features;
  l1.out_features = heads * head_width;
  l1.heads = heads;
  l1.norm = AggNorm::kSum;  // attention normalization dropped
  l1.include_self = true;
  LayerSpec l2;
  l2.name = "gat2";
  l2.kind = LayerKind::kAttentionConv;
  l2.in_features = heads * head_width;
  l2.out_features = out_features;
  l2.heads = 1;
  l2.norm = AggNorm::kSum;
  l2.include_self = true;
  m.layers = {l1, l2};
  return m;
}

ModelSpec make_mpnn(std::uint32_t in_features, std::uint32_t edge_features,
                    std::uint32_t out_features, std::uint32_t hidden,
                    std::uint32_t steps) {
  ModelSpec m;
  m.name = "MPNN";
  LayerSpec embed;
  embed.name = "embed";
  embed.kind = LayerKind::kProject;
  embed.in_features = in_features;
  embed.out_features = hidden;
  m.layers.push_back(embed);
  for (std::uint32_t t = 0; t < steps; ++t) {
    LayerSpec mp;
    mp.name = "mp" + std::to_string(t + 1);
    mp.kind = LayerKind::kMessagePass;
    mp.in_features = hidden;
    mp.out_features = hidden;
    mp.edge_features = edge_features;
    mp.norm = AggNorm::kSum;
    mp.include_self = false;  // messages come from neighbors only
    m.layers.push_back(mp);
  }
  LayerSpec readout;
  readout.name = "readout";
  readout.kind = LayerKind::kReadout;
  readout.in_features = hidden;
  readout.out_features = out_features;
  m.layers.push_back(readout);
  return m;
}

ModelSpec make_pgnn(std::uint32_t in_features, std::uint32_t out_features,
                    std::uint32_t hidden, std::uint32_t hops,
                    std::uint32_t layers) {
  if (layers == 0) throw std::invalid_argument("pgnn needs >= 1 layer");
  ModelSpec m;
  m.name = "PGNN";
  for (std::uint32_t i = 0; i < layers; ++i) {
    LayerSpec l;
    l.name = "pg" + std::to_string(i + 1);
    l.kind = LayerKind::kMultiHopConv;
    l.in_features = i == 0 ? in_features : hidden;
    l.out_features = i + 1 == layers ? out_features : hidden;
    l.hops = hops;
    l.norm = AggNorm::kSum;
    l.include_self = true;  // the H * W_self term
    m.layers.push_back(l);
  }
  return m;
}

std::string benchmark_name(Benchmark b) {
  switch (b) {
    case Benchmark::kGcnCora:
      return "GCN/Cora";
    case Benchmark::kGcnCiteseer:
      return "GCN/Citeseer";
    case Benchmark::kGcnPubmed:
      return "GCN/Pubmed";
    case Benchmark::kGatCora:
      return "GAT/Cora";
    case Benchmark::kMpnnQm9:
      return "MPNN/QM9_1000";
    case Benchmark::kPgnnDblp:
      return "PGNN/DBLP_1";
  }
  return "unknown";
}

graph::DatasetId benchmark_dataset(Benchmark b) {
  switch (b) {
    case Benchmark::kGcnCora:
    case Benchmark::kGatCora:
      return graph::DatasetId::kCora;
    case Benchmark::kGcnCiteseer:
      return graph::DatasetId::kCiteseer;
    case Benchmark::kGcnPubmed:
      return graph::DatasetId::kPubmed;
    case Benchmark::kMpnnQm9:
      return graph::DatasetId::kQm9_1000;
    case Benchmark::kPgnnDblp:
      return graph::DatasetId::kDblp1;
  }
  throw std::invalid_argument("unknown benchmark");
}

ModelSpec make_benchmark_model(Benchmark b) {
  const graph::DatasetSpec& ds = graph::dataset_spec(benchmark_dataset(b));
  switch (b) {
    case Benchmark::kGcnCora:
    case Benchmark::kGcnCiteseer:
    case Benchmark::kGcnPubmed:
      return make_gcn(ds.vertex_features, ds.output_features);
    case Benchmark::kGatCora:
      return make_gat(ds.vertex_features, ds.output_features);
    case Benchmark::kMpnnQm9:
      return make_mpnn(ds.vertex_features, ds.edge_features,
                       ds.output_features);
    case Benchmark::kPgnnDblp:
      return make_pgnn(ds.vertex_features, ds.output_features);
  }
  throw std::invalid_argument("unknown benchmark");
}

}  // namespace gnna::gnn
