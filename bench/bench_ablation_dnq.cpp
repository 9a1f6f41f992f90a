// Ablation A1: the DNQ's lazy queue-switching threshold.
//
// The paper fixes the switch-after-idle threshold at 16 DNA cycles "to
// reduce the number of queue switches that need to occur". This sweep shows
// the latency / switch-count trade-off on MPNN, the only benchmark that
// exercises both virtual queues (message network on queue 0, GRU on
// queue 1). The five configurations share one compiled program and fan
// out across a BatchRunner (--jobs caps the pool).
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "gnn/model.hpp"
#include "sim/batch_runner.hpp"

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);

  std::cout << "=== Ablation: DNQ lazy-switch idle threshold (MPNN, 100 "
               "QM9-like molecules, CPU iso-BW) ===\n\n";

  sim::Session session;
  const sim::Session::Resolved mpnn = session.compile(
      gnn::make_mpnn(13, 5, 73),
      std::make_shared<const graph::Dataset>(benchutil::make_qm9_subset(100)));

  const std::vector<std::uint32_t> thresholds = {0U, 4U, 16U, 64U, 256U};
  std::vector<sim::RunRequest> requests;
  for (const std::uint32_t threshold : thresholds) {
    sim::RunRequest req;
    req.program = mpnn.program;
    req.dataset = mpnn.dataset;
    req.config = accel::AcceleratorConfig::cpu_iso_bw();
    req.config.tile_params.dnq_idle_switch_cycles = threshold;
    req.trace = args.next_trace();
    requests.push_back(std::move(req));
  }

  sim::BatchRunner runner(session, args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    std::cerr << "[ablation-dnq] threshold " << thresholds[i]
              << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  Table t({"Switch threshold (cycles)", "Latency (ms)", "Queue switches",
           "DNA utilization"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return 1;
    const accel::RunStats& rs = results[i].stats;
    t.add_row({std::to_string(thresholds[i]), format_double(rs.millis, 3),
               std::to_string(rs.dnq_queue_switches),
               format_percent(rs.dna_utilization)});
  }
  t.print(std::cout);
  std::cout
      << "\nFinding: when the DNA is the bottleneck (MPNN saturates it), "
         "queue 0's head is\nalmost always ready, so switch opportunities "
         "are rare and the threshold barely\nmatters — the paper's 16-cycle "
         "choice is safe; only extreme thresholds begin to\ndelay GRU "
         "entries on virtual queue 1.\n";
  return 0;
}
