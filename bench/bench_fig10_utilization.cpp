// Reproduces Fig 10: observed mean memory bandwidth and DNA utilization of
// all benchmarks in the CPU iso-bandwidth configuration (2.4 GHz). The six
// runs go through one BatchRunner (--jobs caps the pool); results print
// in benchmark order regardless of completion order.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/batch_runner.hpp"

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);

  std::cout << "=== Fig 10: mean memory bandwidth and DNA utilization, CPU "
               "iso-BW configuration ===\n\n";

  std::vector<sim::RunRequest> requests;
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    sim::RunRequest req;
    req.benchmark = b;
    req.config = accel::AcceleratorConfig::cpu_iso_bw();
    req.trace = args.next_trace();
    requests.push_back(std::move(req));
  }

  sim::BatchRunner runner(sim::Session::global(),
                          args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    benchutil::progress_to_stderr("fig10", i, r);
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  Table t({"Benchmark", "Mean mem BW (GB/s)", "BW utilization",
           "DNA utilization", "GPE utilization", "AGG utilization"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return 1;
    const accel::RunStats& rs = results[i].stats;
    t.add_row({gnn::benchmark_name(*requests[i].benchmark),
               format_double(rs.mean_bandwidth_gbps, 1),
               format_percent(rs.bandwidth_utilization),
               format_percent(rs.dna_utilization),
               format_percent(rs.gpe_utilization),
               format_percent(rs.agg_utilization)});
  }
  t.print(std::cout);

  std::cout
      << "\nShape (paper): GCN inputs saturate memory bandwidth with low "
         "DNA utilization\n(Cora 79% / Citeseer 70% / Pubmed 54% BW in the "
         "paper); GAT and MPNN are\nDNA-heavy; PGNN shows very little DNA "
         "utilization because the GPE's multi-hop\ntraversal is the "
         "bottleneck.\n";
  return 0;
}
