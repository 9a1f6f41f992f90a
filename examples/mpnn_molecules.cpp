// Molecular property inference with an MPNN (Gilmer-style message passing)
// over a batch of QM9-like molecules, simulated on the accelerator to see
// where the time goes.
//
//   $ ./examples/mpnn_molecules
#include <iostream>

#include "accel/compiler.hpp"
#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

int main() {
  using namespace gnna;

  // A batch of 50 random molecules (12-13 atoms, bond features).
  Rng rng(2024);
  graph::Dataset mols;
  mols.spec = {"molecules", 50, 0, 0, 13, 5, 73};
  for (int i = 0; i < 50; ++i) {
    const NodeId atoms = 12 + (i % 2);
    const EdgeId bonds = atoms;
    mols.graphs.push_back(graph::generate_molecule_graph(rng, atoms, bonds));
    mols.undirected.push_back(mols.graphs.back().symmetrized());
  }
  mols.spec.total_nodes = mols.total_nodes();
  mols.spec.total_edges = mols.total_edges();

  const gnn::ModelSpec mpnn = gnn::make_mpnn(13, 5, 73);
  std::cout << "model: " << mpnn.name << " with " << mpnn.layers.size()
            << " layers (embed, 3 message-passing steps, readout)\n";

  // Cycle-level simulation: per-phase breakdown.
  const accel::CompiledProgram prog =
      accel::ProgramCompiler{}.compile(mpnn, mols);
  accel::AcceleratorSim sim(accel::AcceleratorConfig::cpu_iso_bw());
  const accel::RunStats rs = sim.run(prog, mols);

  std::cout << "simulated latency on CPU iso-BW @ 2.4 GHz: "
            << format_double(rs.millis, 3) << " ms\n";
  std::cout << "DNA utilization " << format_percent(rs.dna_utilization)
            << " (message passing is compute-bound: the per-edge edge "
               "network dominates)\n\n";

  Table t({"Phase", "Cycles", "Share"});
  for (const auto& ph : rs.phases) {
    t.add_row({ph.name, std::to_string(ph.cycles),
               format_percent(static_cast<double>(ph.cycles) /
                              static_cast<double>(rs.cycles))});
  }
  t.print(std::cout);
  return 0;
}
