// Ablation: partition policy — profile-guided two-pass rebalancing.
//
// Round-robin and block spread vertices across tiles blindly, by id or in
// contiguous ranges; degree-greedy LPT-packs out-degree + 1 as a static
// guess at each vertex's work. Profile-guided partitioning closes the
// loop instead. Pass 1 runs round-robin with the attribution sink on, which
// measures every vertex's GPE cycles exactly. Pass 2 LPT-packs those loads
// (graph::partition_work: heaviest vertex onto the lightest tile) and
// reruns with the resulting split. The sweep
// prints total cycles and the attribution imbalance metrics for every
// policy, per workload — the two-pass win shows up as a busy max/mean
// near 1.000 and a lower cycle count than round-robin wherever the
// baseline was skewed.
//
// This is the in-process version of the CLI recipe (EXPERIMENTS.md):
//   gnnasim --benchmark X --attribution --json p1.json
//   gnnasim --benchmark X --partition profile-guided --attribution-from p1.json
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "gnn/model.hpp"
#include "graph/partition.hpp"

namespace {

using namespace gnna;

/// Hub-dominated citation graph: Zipf destination sampling with a steep
/// exponent concentrates a large fraction of the edges on a handful of
/// vertices, so per-vertex gather work is strongly skewed — the regime
/// static splits handle worst.
graph::Dataset make_citation_hub(NodeId nodes, EdgeId edges, double alpha,
                                 std::uint32_t feats,
                                 std::uint64_t seed = 17) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec = {"CITE_hub", 1, nodes, edges, feats, 0, 7};
  ds.graphs.push_back(
      graph::generate_citation_graph(rng, nodes, edges, alpha));
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  std::vector<float> nf(std::size_t{nodes} * feats);
  for (auto& x : nf) x = rng.next_float(0.0F, 1.0F);
  ds.node_features.push_back(std::move(nf));
  ds.edge_features.emplace_back();
  return ds;
}

struct PolicyResult {
  std::string label;
  accel::RunStats stats;
};

/// One simulation with attribution always on (needed by pass 1 to measure
/// and by every pass to report imbalance).
accel::RunStats run_once(const sim::Session::Resolved& prog,
                         const accel::AcceleratorConfig& cfg,
                         graph::PartitionPolicy policy,
                         std::vector<double> profile,
                         benchutil::BenchArgs& args) {
  accel::AcceleratorSim sim(cfg, policy);
  accel::TraceOptions opts = args.next_trace();
  opts.attribution = true;
  sim.set_trace(opts);
  sim.set_profile_loads(std::move(profile));
  return sim.run(*prog.program, *prog.dataset);
}

void sweep(const sim::Session::Resolved& prog,
           const accel::AcceleratorConfig& cfg,
           benchutil::BenchArgs& args, const std::string& label) {
  std::cout << "--- " << label << " (" << cfg.num_tiles() << " tiles) ---\n";

  std::vector<PolicyResult> results;
  results.push_back({"round-robin",
                     run_once(prog, cfg, graph::PartitionPolicy::kRoundRobin,
                              {}, args)});
  results.push_back({"block",
                     run_once(prog, cfg, graph::PartitionPolicy::kBlock, {},
                              args)});
  results.push_back({"degree-greedy",
                     run_once(prog, cfg, graph::PartitionPolicy::kDegreeGreedy,
                              {}, args)});

  // Two-pass: measured per-vertex GPE cycles from the round-robin run
  // drive the LPT rebalance of the rerun.
  results.push_back(
      {"profile-guided",
       run_once(prog, cfg, graph::PartitionPolicy::kProfileGuided,
                results[0].stats.attribution->vertex_busy(
                    prog.program->total_vertices()),
                args)});

  const auto base = static_cast<double>(results[0].stats.cycles);
  Table t({"Policy", "Cycles", "vs round-robin", "Busy max/mean",
           "Flit gini"});
  for (const PolicyResult& r : results) {
    const trace::AttributionReport& ar = *r.stats.attribution;
    t.add_row({r.label, std::to_string(r.stats.cycles),
               format_double(base / static_cast<double>(r.stats.cycles), 3) +
                   "x",
               format_double(ar.busy_max_mean(), 3),
               format_double(ar.flit_gini(), 3)});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchArgs args(argc, argv);
  std::cout << "=== Ablation: partition policy (two-pass profile-guided "
               "rebalance) ===\n\n";

  sim::Session session;

  const std::shared_ptr<const graph::Dataset> cora =
      session.dataset(graph::DatasetId::kCora);
  sweep(session.compile(gnn::make_gcn(cora->spec.vertex_features,
                                      cora->spec.output_features),
                        cora),
        accel::AcceleratorConfig::gpu_iso_bw(), args, "GCN / Cora");
  sweep(session.compile(gnn::make_gat(cora->spec.vertex_features,
                                      cora->spec.output_features),
                        cora),
        accel::AcceleratorConfig::gpu_iso_bw(), args, "GAT / Cora");

  // Skewed citation graph: a few Zipf hubs own a large share of the
  // edges, so blind splits leave the hub tiles as barrier stragglers —
  // the regime where the measured rebalance pays off.
  // GAT is compute-bound on this config (GPE ~80% utilized, memory ~50%),
  // so the hub tiles' GPE queues are the critical path — exactly what the
  // rebalance removes. GCN at the same shape stays memory-bandwidth-bound
  // and is insensitive to GPE balance (see the Cora rows above).
  auto cite = std::make_shared<const graph::Dataset>(
      make_citation_hub(2048, 32768, 1.5, 64));
  sweep(session.compile(
            gnn::make_gat(cite->spec.vertex_features,
                          cite->spec.output_features),
            cite),
        accel::AcceleratorConfig::gpu_iso_bw(), args,
        "GAT / citation-hub-2k");

  std::cout << "Expected shape: on the memory-bandwidth-bound Cora runs "
               "(GCN streams the whole\nfeature matrix) cycle counts are "
               "insensitive to GPE balance and the policies\ntie within "
               "noise. On the compute-bound skewed pair the hub tiles are "
               "the\nbarrier-limited stragglers: profile-guided LPT packs "
               "the measured loads to a\nbusy max/mean near 1.00 and beats "
               "round-robin outright, while block\npartitioning "
               "concentrates the hubs and loses ground.\n";
  return 0;
}
