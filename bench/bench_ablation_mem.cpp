// Ablation A4: memory-controller scheduling.
//
// The baseline memory node is an in-order DDR4 channel with one fixed
// access latency. The banked FR-FCFS controller exposes row locality
// instead: row hits (10 ns) are three times cheaper than row misses
// (30 ns), and the scheduler reorders a small request window to chase
// hits. This sweep compares the two models and varies the bank count,
// which sets how much row state the controller can hold open at once.
// All configurations share one session (one Cora dataset) and one
// compiled program via BatchRunner.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "gnn/model.hpp"
#include "mem/memory.hpp"
#include "sim/batch_runner.hpp"

namespace {

struct Variant {
  std::string label;
  gnna::mem::MemScheduler scheduler;
  std::uint32_t banks;
  bool bank_xor = false;
};

void sweep(gnna::sim::Session& session,
           const gnna::sim::Session::Resolved& prog,
           gnna::benchutil::BenchArgs& args,
           const std::string& label) {
  using namespace gnna;
  std::cout << "--- " << label << " ---\n";

  const std::vector<Variant> variants = {
      {"in-order", mem::MemScheduler::kInOrder, 1U},
      {"FR-FCFS /2 banks", mem::MemScheduler::kFrFcfs, 2U},
      {"FR-FCFS /4 banks", mem::MemScheduler::kFrFcfs, 4U},
      {"FR-FCFS /8 banks", mem::MemScheduler::kFrFcfs, 8U},
      {"FR-FCFS /16 banks", mem::MemScheduler::kFrFcfs, 16U},
      {"FR-FCFS /16 banks +XOR", mem::MemScheduler::kFrFcfs, 16U, true},
  };
  std::vector<sim::RunRequest> requests;
  for (const Variant& v : variants) {
    sim::RunRequest req;
    req.program = prog.program;
    req.dataset = prog.dataset;
    req.config = accel::AcceleratorConfig::cpu_iso_bw();
    req.config.mem_params.scheduler = v.scheduler;
    req.config.mem_params.banks = v.banks;
    req.config.mem_params.bank_xor = v.bank_xor;
    req.trace = args.next_trace();
    requests.push_back(std::move(req));
  }

  sim::BatchRunner runner(session, args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    std::cerr << "[ablation-mem] " << label << ' ' << variants[i].label
              << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  Table t({"Scheduler", "Cycles", "Latency (ms)", "Row-hit rate",
           "Mean mem BW (GB/s)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) std::exit(1);
    const accel::RunStats& rs = results[i].stats;
    t.add_row({variants[i].label, std::to_string(rs.cycles),
               format_double(rs.millis, 3),
               rs.mem_scheduler == "frfcfs"
                   ? format_percent(rs.mem_row_hit_rate)
                   : std::string("-"),
               format_double(rs.mean_bandwidth_gbps, 1)});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);

  std::cout << "=== Ablation: memory scheduling (CPU iso-BW, 2.4 GHz) "
               "===\n\n";

  sim::Session session;
  const std::shared_ptr<const graph::Dataset> cora =
      session.dataset(graph::DatasetId::kCora);
  sweep(session,
        session.compile(gnn::make_gcn(cora->spec.vertex_features,
                                      cora->spec.output_features),
                        cora),
        args, "GCN / Cora (streaming feature reads)");
  sweep(session,
        session.compile(gnn::make_gat(cora->spec.vertex_features,
                                      cora->spec.output_features),
                        cora),
        args, "GAT / Cora (attention-dominated, lighter mem traffic)");
  std::cout << "Expected shape: with few banks the 64B interleave spreads "
               "consecutive lines across\nbanks and row reuse is poor; more "
               "banks keep more rows open, the hit rate climbs,\nand FR-FCFS "
               "approaches (or beats) the fixed-latency in-order model.\n"
               "The +XOR row swizzles the bank with the row index "
               "(mem_bank_xor=1): it matters\nonly when the access stream "
               "strides by whole rows and camps on one bank.\n";
  return 0;
}
