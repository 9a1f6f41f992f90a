// Citation-network node classification with GCN — the paper's core
// motivating workload — swept across the three citation datasets and all
// three accelerator configurations.
//
//   $ ./examples/gcn_citation
#include <iostream>

#include "baseline/baselines.hpp"
#include "common/table.hpp"
#include "sim/session.hpp"

int main() {
  using namespace gnna;
  using accel::AcceleratorConfig;

  std::cout << "GCN inference across citation networks and accelerator "
               "configurations\n\n";

  const gnn::Benchmark benchmarks[] = {gnn::Benchmark::kGcnCora,
                                       gnn::Benchmark::kGcnCiteseer,
                                       gnn::Benchmark::kGcnPubmed};
  const AcceleratorConfig configs[] = {AcceleratorConfig::cpu_iso_bw(),
                                       AcceleratorConfig::gpu_iso_bw()};

  Table t({"Input", "Config", "Latency (ms)", "Mem BW (GB/s)", "DNA util",
           "Speedup vs CPU"});
  for (const auto b : benchmarks) {
    const double cpu_ms = baseline::table7_row(b).cpu_ms;
    for (const auto& cfg : configs) {
      std::cerr << "simulating " << gnn::benchmark_name(b) << " on "
                << cfg.name << "...\n";
      sim::RunRequest req;
      req.benchmark = b;
      req.config = cfg;
      const accel::RunStats rs = sim::Session::global().run(req);
      t.add_row({gnn::benchmark_name(b), cfg.name,
                 format_double(rs.millis, 3),
                 format_double(rs.mean_bandwidth_gbps, 1),
                 format_percent(rs.dna_utilization),
                 format_speedup(cpu_ms / rs.millis)});
    }
  }
  t.print(std::cout);

  std::cout << "\nNote how the citation GCNs are bandwidth-bound: the GPU "
               "iso-BW configuration\n(8x the memory bandwidth) buys nearly "
               "proportional latency, while DNA\nutilization stays low.\n";
  return 0;
}
