// Extension bench: how the accelerator's advantage scales with graph size.
//
// GCN on synthetic citation graphs of growing size (mean degree 4, 64
// features), simulated on the CPU iso-BW accelerator and estimated on the
// CPU device model. Expected shape: on small graphs the CPU pays its fixed
// framework/dispatch overhead (the same effect that makes the measured
// MPNN baseline so slow on 1000 tiny molecules), so the accelerator's
// advantage is enormous; as the graph grows, both sides become bandwidth
// streamers and the speedup converges toward the modest ratio of effective
// memory bandwidths. Note the accelerator's own bandwidth utilization also
// drifts down with scale as wide hub-vertex gathers monopolize the single
// memory controller's in-order queue. All five sizes run through one
// BatchRunner (--jobs caps the pool).
#include <iostream>
#include <memory>
#include <vector>

#include "baseline/baselines.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gnn/model.hpp"
#include "gnn/workload.hpp"
#include "graph/generator.hpp"
#include "sim/batch_runner.hpp"

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);

  std::cout << "=== Scale sweep: GCN on synthetic citation graphs (mean "
               "degree 4, 64 features, CPU iso-BW @ 2.4 GHz) ===\n\n";

  const baseline::DeviceModel cpu = baseline::cpu_xeon_e5_2680v4();
  const gnn::ModelSpec gcn = gnn::make_gcn(64, 8);

  const std::vector<NodeId> sizes = {256U, 1024U, 4096U, 16384U, 32768U};
  sim::Session session;
  std::vector<sim::RunRequest> requests;
  for (const NodeId n : sizes) {
    Rng rng(n);
    graph::Dataset ds;
    ds.spec = {"synth", 1, n, n * 4, 64, 0, 8};
    ds.graphs.push_back(graph::generate_citation_graph(rng, n, n * 4));
    ds.undirected.push_back(ds.graphs[0].symmetrized());
    ds.node_features.emplace_back(std::size_t{n} * 64, 0.5F);
    ds.edge_features.emplace_back();

    const sim::Session::Resolved prog = session.compile(
        gcn, std::make_shared<const graph::Dataset>(std::move(ds)));
    sim::RunRequest req;
    req.program = prog.program;
    req.dataset = prog.dataset;
    req.config = accel::AcceleratorConfig::cpu_iso_bw();
    req.trace = args.next_trace();
    requests.push_back(std::move(req));
  }

  sim::BatchRunner runner(session, args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    std::cerr << "[scale] n=" << sizes[i]
              << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  Table t({"Nodes", "Edges", "Accel (ms)", "CPU model (ms)",
           "Speedup", "BW util", "DNA util"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return 1;
    const accel::RunStats& rs = results[i].stats;
    const NodeId n = sizes[i];
    const double cpu_ms = baseline::estimate_latency_ms(
        cpu, gnn::profile_work(gcn, *requests[i].dataset),
        /*input_density=*/1.0);
    t.add_row({std::to_string(n), std::to_string(n * 4),
               format_double(rs.millis, 3), format_double(cpu_ms, 3),
               format_speedup(cpu_ms / rs.millis),
               format_percent(rs.bandwidth_utilization),
               format_percent(rs.dna_utilization)});
  }
  t.print(std::cout);
  return 0;
}
