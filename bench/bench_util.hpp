// Shared helpers for the benches: the simulating benches' command line,
// and reduced-size datasets so design sweeps finish quickly while
// exercising the same code paths.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "sim/batch_runner.hpp"
#include "sim/manifest.hpp"

namespace gnna::benchutil {

/// The command line every simulating bench takes:
///   --trace <file>        Chrome-trace event log, one <file>.runN per run
///   --sample-every <n>    utilization samples every n NoC cycles
///   --sample-file <file>  CSV for the samples, one <file>.runN per run
///                         (default stderr)
///   --jobs <n>            BatchRunner workers in [1, 1024] (default: one
///                         per hardware thread)
/// The first three are run options (sim/options.hpp). Any other argument,
/// other run options included, exits 2 before any run starts: a bench
/// picks its own configurations and must not silently ignore one.
class BenchArgs {
 public:
  BenchArgs(int argc, char** argv) {
    constexpr std::string_view kRunFlags[] = {"--trace", "--sample-every",
                                              "--sample-file"};
    try {
      for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--jobs") {
          jobs_ = sim::parse_jobs(argc, argv, i);
        } else if (std::find(std::begin(kRunFlags), std::end(kRunFlags),
                             arg) == std::end(kRunFlags) ||
                   !options_.parse_flag(argc, argv, i)) {
          throw std::invalid_argument(
              std::string(arg) +
              " is not a bench option (--trace <file>, --sample-every <n>, "
              "--sample-file <file>, --jobs <n>)");
        }
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << '\n';
      std::exit(2);
    }
  }

  /// Observability for the next run, writing its own numbered files.
  [[nodiscard]] accel::TraceOptions next_trace() {
    sim::RunRequest req;
    options_.apply(req);
    sim::per_run_paths(req.trace, runs_++);
    return req.trace;
  }

  /// BatchRunner workers; 0 is one per hardware thread.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

 private:
  sim::RunOptions options_;
  unsigned jobs_ = 0;
  std::size_t runs_ = 0;
};

/// Progress line printed as each batch run retires (completion order).
inline void progress_to_stderr(const std::string& tag, std::size_t index,
                               const gnna::sim::RunResult& r) {
  std::cerr << '[' << tag << "] run " << index
            << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
}

/// QM9-like subset: `num_graphs` molecules of 12-13 atoms (the paper used
/// the first 1000 QM9 graphs; ablations use fewer for speed).
inline graph::Dataset make_qm9_subset(std::uint32_t num_graphs,
                                      std::uint64_t seed = 11) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec = {"QM9_" + std::to_string(num_graphs), num_graphs, 0, 0, 13, 5, 73};
  for (std::uint32_t i = 0; i < num_graphs; ++i) {
    const NodeId n = 12 + (i % 3 == 0 ? 1 : 0);
    const EdgeId e = 12 + (i % 12 == 0 ? 1 : 0);
    ds.graphs.push_back(graph::generate_molecule_graph(rng, n, e));
    ds.undirected.push_back(ds.graphs.back().symmetrized());
    std::vector<float> nf(std::size_t{n} * 13);
    for (auto& x : nf) x = rng.next_float(0.0F, 1.0F);
    ds.node_features.push_back(std::move(nf));
    std::vector<float> ef(std::size_t{e} * 5);
    for (auto& x : ef) x = rng.next_float(0.0F, 1.0F);
    ds.edge_features.push_back(std::move(ef));
  }
  ds.spec.total_nodes = ds.total_nodes();
  ds.spec.total_edges = ds.total_edges();
  return ds;
}

/// DBLP-like community subgraph at reduced scale.
inline graph::Dataset make_community_subset(NodeId nodes, EdgeId edges,
                                            std::uint64_t seed = 13) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec = {"DBLP_small", 1, nodes, edges, 1, 0, 3};
  ds.graphs.push_back(graph::generate_community_graph(rng, nodes, edges, 3));
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  std::vector<float> nf(nodes);
  for (NodeId v = 0; v < nodes; ++v) {
    nf[v] = static_cast<float>(ds.undirected[0].out_degree(v));
  }
  ds.node_features.push_back(std::move(nf));
  ds.edge_features.emplace_back();
  return ds;
}

}  // namespace gnna::benchutil
