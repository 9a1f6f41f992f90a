// Extension bench: estimated energy per inference for every benchmark on
// the CPU iso-BW configuration, with the component breakdown and the
// wasted-DRAM fraction that motivates the paper (Section II). The six runs
// share one BatchRunner (--jobs caps the pool).
#include <iostream>
#include <vector>

#include "accel/energy.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/batch_runner.hpp"

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);

  std::cout << "=== Energy per inference (CPU iso-BW, 2.4 GHz; "
               "activity-counter model, see src/accel/energy.hpp) ===\n\n";

  const accel::AcceleratorConfig cfg = accel::AcceleratorConfig::cpu_iso_bw();
  std::vector<sim::RunRequest> requests;
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    sim::RunRequest req;
    req.benchmark = b;
    req.config = cfg;
    req.trace = args.next_trace();
    requests.push_back(std::move(req));
  }

  sim::BatchRunner runner(sim::Session::global(),
                          args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    benchutil::progress_to_stderr("energy", i, r);
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  Table t({"Benchmark", "Total (uJ)", "DRAM", "NoC", "DNA", "AGG", "GPE",
           "Leakage", "DRAM waste"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return 1;
    const accel::EnergyBreakdown e =
        accel::estimate_energy(results[i].stats, cfg);
    auto share = [&](double uj) { return format_percent(uj / e.total_uj()); };
    t.add_row({gnn::benchmark_name(*requests[i].benchmark),
               format_double(e.total_uj(), 1), share(e.dram_uj),
               share(e.noc_uj), share(e.dna_uj), share(e.agg_uj),
               share(e.gpe_uj), share(e.leakage_uj),
               format_percent(e.dram_waste_fraction)});
  }
  t.print(std::cout);

  std::cout << "\nExpected shape: DRAM dominates the memory-bound GCNs; DNA "
               "dominates MPNN;\nPGNN burns a large wasted-DRAM fraction "
               "because its 4-byte feature reads\noccupy whole 64B lines — "
               "the inefficiency Section II calls out.\n";
  return 0;
}
