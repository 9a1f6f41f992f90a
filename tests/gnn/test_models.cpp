#include "gnn/model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gnna::gnn {
namespace {

TEST(Models, GcnShape) {
  const ModelSpec m = make_gcn(1433, 7);
  ASSERT_EQ(m.layers.size(), 2U);
  EXPECT_EQ(m.name, "GCN");
  EXPECT_EQ(m.layers[0].kind, LayerKind::kConv);
  EXPECT_EQ(m.layers[0].in_features, 1433U);
  EXPECT_EQ(m.layers[0].out_features, 16U);
  EXPECT_EQ(m.layers[0].norm, AggNorm::kSymNorm);
  EXPECT_EQ(m.layers[1].out_features, 7U);
  EXPECT_EQ(m.input_features(), 1433U);
  EXPECT_EQ(m.output_features(), 7U);
}

TEST(Models, GatShape) {
  const ModelSpec m = make_gat(1433, 7);
  ASSERT_EQ(m.layers.size(), 2U);
  EXPECT_EQ(m.layers[0].kind, LayerKind::kAttentionConv);
  EXPECT_EQ(m.layers[0].heads, 8U);
  EXPECT_EQ(m.layers[0].out_features, 64U);
  EXPECT_EQ(m.layers[0].head_width(), 8U);
  EXPECT_EQ(m.layers[1].heads, 1U);
  EXPECT_EQ(m.layers[1].out_features, 7U);
  // Attention normalization dropped => plain sum aggregation.
  EXPECT_EQ(m.layers[0].norm, AggNorm::kSum);
}

TEST(Models, MpnnShape) {
  const ModelSpec m = make_mpnn(13, 5, 73);
  ASSERT_EQ(m.layers.size(), 5U);  // embed + 3 steps + readout
  EXPECT_EQ(m.layers[0].kind, LayerKind::kProject);
  for (int t = 1; t <= 3; ++t) {
    EXPECT_EQ(m.layers[t].kind, LayerKind::kMessagePass);
    EXPECT_EQ(m.layers[t].edge_features, 5U);
    EXPECT_EQ(m.layers[t].edge_hidden, 128U);
    EXPECT_FALSE(m.layers[t].include_self);
  }
  EXPECT_EQ(m.layers.back().kind, LayerKind::kReadout);
  EXPECT_EQ(m.output_features(), 73U);
}

TEST(Models, PgnnShape) {
  const ModelSpec m = make_pgnn(1, 3);
  ASSERT_EQ(m.layers.size(), 2U);
  for (const auto& l : m.layers) {
    EXPECT_EQ(l.kind, LayerKind::kMultiHopConv);
    EXPECT_EQ(l.hops, 3U);
  }
  EXPECT_EQ(m.layers[0].in_features, 1U);
  EXPECT_EQ(m.layers[0].out_features, 8U);
  EXPECT_EQ(m.layers[1].out_features, 3U);
  EXPECT_THROW(make_pgnn(1, 3, 8, 3, 0), std::invalid_argument);
}

TEST(Models, BenchmarkMapping) {
  EXPECT_EQ(benchmark_dataset(Benchmark::kGcnCora), graph::DatasetId::kCora);
  EXPECT_EQ(benchmark_dataset(Benchmark::kGatCora), graph::DatasetId::kCora);
  EXPECT_EQ(benchmark_dataset(Benchmark::kMpnnQm9),
            graph::DatasetId::kQm9_1000);
  EXPECT_EQ(benchmark_dataset(Benchmark::kPgnnDblp),
            graph::DatasetId::kDblp1);
  EXPECT_EQ(benchmark_name(Benchmark::kGcnPubmed), "GCN/Pubmed");
}

TEST(Models, BenchmarkModelsSizedForDatasets) {
  for (const Benchmark b : kAllBenchmarks) {
    const ModelSpec m = make_benchmark_model(b);
    const auto& spec = graph::dataset_spec(benchmark_dataset(b));
    EXPECT_EQ(m.input_features(), spec.vertex_features) << benchmark_name(b);
    EXPECT_EQ(m.output_features(), spec.output_features)
        << benchmark_name(b);
  }
}

}  // namespace
}  // namespace gnna::gnn
