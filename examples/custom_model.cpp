// Building a custom GNN and a custom accelerator configuration with the
// public API: a 3-layer mean-aggregation GraphSAGE-style network on a
// synthetic social graph, simulated on a bespoke 4-tile accelerator.
//
//   $ ./examples/custom_model
#include <iostream>

#include "accel/compiler.hpp"
#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gnn/layer.hpp"
#include "graph/generator.hpp"

int main() {
  using namespace gnna;

  // 1. A synthetic social graph: 5000 users, 40000 follows.
  Rng rng(77);
  graph::Dataset social;
  social.spec = {"social-5k", 1, 5000, 40000, 32, 0, 8};
  social.graphs.push_back(
      graph::generate_citation_graph(rng, 5000, 40000, /*alpha=*/1.1));
  social.undirected.push_back(social.graphs[0].symmetrized());

  // 2. A custom model straight from the layer IR: three mean-aggregation
  //    convolutions (GraphSAGE-mean flavour).
  gnn::ModelSpec sage;
  sage.name = "SAGE-mean";
  for (int i = 0; i < 3; ++i) {
    gnn::LayerSpec l;
    l.name = "sage" + std::to_string(i + 1);
    l.kind = gnn::LayerKind::kConv;
    l.norm = gnn::AggNorm::kMean;
    l.in_features = i == 0 ? 32 : 64;
    l.out_features = i == 2 ? 8 : 64;
    sage.layers.push_back(l);
  }

  // 3. A bespoke accelerator: 4 tiles + 2 memory nodes on a 3x2 mesh, with
  //    a beefier GPE thread pool.
  accel::AcceleratorConfig cfg;
  cfg.name = "custom-4tile";
  cfg.mesh_width = 3;
  cfg.mesh_height = 2;
  cfg.tile_coords = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  cfg.mem_coords = {{2, 0}, {2, 1}};
  cfg.tile_params.gpe_threads = 32;

  const accel::CompiledProgram prog =
      accel::ProgramCompiler{}.compile(sage, social);
  accel::AcceleratorSim sim(cfg);
  const accel::RunStats rs = sim.run(prog, social);

  Table t({"Metric", "Value"});
  t.add_row({"latency", format_double(rs.millis, 3) + " ms"});
  t.add_row({"mean memory bandwidth",
             format_double(rs.mean_bandwidth_gbps, 1) + " GB/s (of " +
                 format_double(cfg.total_mem_bandwidth_gbps(), 0) + ")"});
  t.add_row({"DNA utilization", format_percent(rs.dna_utilization)});
  t.add_row({"GPE utilization", format_percent(rs.gpe_utilization)});
  t.add_row({"vertices retired", std::to_string(rs.tasks_completed)});
  t.add_row({"NoC packets", std::to_string(rs.packets_delivered)});
  t.print(std::cout);
  return 0;
}
