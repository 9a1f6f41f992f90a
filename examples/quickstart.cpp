// Quickstart: build a GNN, compile it, simulate it on the GNN accelerator
// and print the timing report.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <iostream>

#include "accel/compiler.hpp"
#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "gnn/model.hpp"
#include "graph/dataset.hpp"

int main() {
  using namespace gnna;

  // 1. A dataset: the synthetic Cora stand-in (Table V statistics).
  const graph::Dataset cora = graph::make_dataset(graph::DatasetId::kCora);
  std::cout << "dataset: " << cora.spec.name << " — "
            << cora.spec.total_nodes << " nodes, " << cora.spec.total_edges
            << " edges, " << cora.spec.vertex_features << " features\n";

  // 2. A model: 2-layer GCN sized for Cora.
  const gnn::ModelSpec gcn =
      gnn::make_gcn(cora.spec.vertex_features, cora.spec.output_features);

  // 3. Cycle-level simulation on the CPU iso-bandwidth configuration
  //    (1 tile + 1 memory node, Table VI).
  const accel::ProgramCompiler compiler;
  const accel::CompiledProgram prog = compiler.compile(gcn, cora);
  std::cout << "compiled to " << prog.phases.size() << " phases, "
            << prog.memmap.total_bytes() / 1024 << " KiB footprint\n";

  accel::AcceleratorSim sim(accel::AcceleratorConfig::cpu_iso_bw());
  const accel::RunStats rs = sim.run(prog, cora);

  std::printf("\nsimulated on %s @ %.1f GHz\n", rs.config_name.c_str(),
              rs.core_clock_ghz);
  std::printf("  latency          : %.3f ms (%llu cycles)\n", rs.millis,
              static_cast<unsigned long long>(rs.cycles));
  std::printf("  mean memory BW   : %.1f GB/s (%.0f%% of peak)\n",
              rs.mean_bandwidth_gbps, rs.bandwidth_utilization * 100.0);
  std::printf("  DNA utilization  : %.1f%%\n", rs.dna_utilization * 100.0);
  std::printf("  GPE utilization  : %.1f%%\n", rs.gpe_utilization * 100.0);
  std::printf("  vertices retired : %llu\n",
              static_cast<unsigned long long>(rs.tasks_completed));
  for (const auto& ph : rs.phases) {
    std::printf("  phase %-10s : %llu cycles\n", ph.name.c_str(),
                static_cast<unsigned long long>(ph.cycles));
  }
  return 0;
}
