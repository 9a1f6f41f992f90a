// Ablation A3: AGG ALU bank width.
//
// The paper banks 16 32-bit ALUs in the aggregator — exactly one 64B flit
// (16 words) per cycle, matched to the NoC link width. This sweep shows
// what narrower or wider banks would do on aggregation-heavy benchmarks.
// Both sweeps share one session (one Cora dataset) and each sweep's five
// configurations share one compiled program via BatchRunner.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "gnn/model.hpp"
#include "sim/batch_runner.hpp"

namespace {

void sweep(gnna::sim::Session& session,
           const gnna::sim::Session::Resolved& prog,
           gnna::benchutil::BenchArgs& args,
           const std::string& label) {
  using namespace gnna;
  std::cout << "--- " << label << " ---\n";

  const std::vector<std::uint32_t> alu_counts = {2U, 4U, 8U, 16U, 32U};
  std::vector<sim::RunRequest> requests;
  for (const std::uint32_t alus : alu_counts) {
    sim::RunRequest req;
    req.program = prog.program;
    req.dataset = prog.dataset;
    req.config = accel::AcceleratorConfig::cpu_iso_bw();
    req.config.tile_params.agg_alus = alus;
    req.trace = args.next_trace();
    requests.push_back(std::move(req));
  }

  sim::BatchRunner runner(session, args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    std::cerr << "[ablation-agg] " << label << " alus=" << alu_counts[i]
              << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  Table t({"AGG ALUs", "Latency (ms)", "AGG utilization",
           "Mean mem BW (GB/s)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) std::exit(1);
    const accel::RunStats& rs = results[i].stats;
    t.add_row({std::to_string(alu_counts[i]), format_double(rs.millis, 3),
               format_percent(rs.agg_utilization),
               format_double(rs.mean_bandwidth_gbps, 1)});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);

  std::cout << "=== Ablation: AGG ALU bank width (CPU iso-BW, 2.4 GHz) "
               "===\n\n";

  sim::Session session;
  const std::shared_ptr<const graph::Dataset> cora =
      session.dataset(graph::DatasetId::kCora);
  sweep(session,
        session.compile(gnn::make_gcn(cora->spec.vertex_features,
                                      cora->spec.output_features),
                        cora),
        args, "GCN / Cora (wide 1433-word aggregations)");
  sweep(session,
        session.compile(gnn::make_gat(cora->spec.vertex_features,
                                      cora->spec.output_features),
                        cora),
        args, "GAT / Cora (64-word aggregations fed by the DNA)");
  std::cout << "Expected shape: below 16 ALUs the bank cannot keep up with "
               "one 64B flit per cycle\nand becomes a serialization point "
               "on wide aggregations; above 16 the NoC link is\nthe limit, "
               "so extra ALUs buy nothing.\n";
  return 0;
}
