// Reproduces Fig 8: normalized speedups of the GNN accelerator over the
// baseline systems, for all six benchmark/input pairs, across core-clock
// settings (the NoC and memory bandwidth stay fixed, Section VI-B):
//   left   : CPU iso-BW configuration vs the CPU baseline
//   middle : GPU iso-BW configuration vs the GPU baseline
//   right  : GPU iso-FLOPS configuration vs the GPU baseline
//
// This is the flagship experiment and runs the full cycle-level simulator
// for every (benchmark, configuration, clock) point — expect several
// minutes. Set GNNA_QUICK=1 to sweep only the 2.4 GHz points; --jobs caps
// the worker pool. All points go through one BatchRunner, so the six
// datasets and programs are built once and shared across the whole sweep.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <vector>

#include "baseline/baselines.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/batch_runner.hpp"

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);
  using accel::AcceleratorConfig;

  const bool quick = std::getenv("GNNA_QUICK") != nullptr;
  const std::vector<double> clocks =
      quick ? std::vector<double>{2.4} : std::vector<double>{0.6, 1.2, 2.4};

  struct Panel {
    std::string title;
    AcceleratorConfig cfg;
    bool vs_gpu;
  };
  const Panel panels[] = {
      {"CPU iso-BW vs CPU baseline", AcceleratorConfig::cpu_iso_bw(), false},
      {"GPU iso-BW vs GPU baseline", AcceleratorConfig::gpu_iso_bw(), true},
      {"GPU iso-FLOPS vs GPU baseline", AcceleratorConfig::gpu_iso_flops(),
       true},
  };

  std::cout << "=== Fig 8: normalized speedups of the GNN accelerator ===\n";
  std::cout << "(baseline latencies: paper Table VII; simulated latencies: "
               "this repository's cycle-level model)\n";

  // One request per (panel, benchmark, clock) point, in sweep order.
  struct Point {
    int panel;
    gnn::Benchmark benchmark;
    double ghz;
  };
  std::vector<Point> points;
  std::vector<sim::RunRequest> requests;
  for (int p = 0; p < 3; ++p) {
    for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
      for (const double ghz : clocks) {
        points.push_back({p, b, ghz});
        sim::RunRequest req;
        req.benchmark = b;
        req.config = panels[p].cfg;
        req.clock_ghz = ghz;
        req.trace = args.next_trace();
        requests.push_back(std::move(req));
      }
    }
  }

  sim::BatchRunner runner(sim::Session::global(),
                          args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    std::cerr << "[fig8] " << panels[points[i].panel].title << " | "
              << gnn::benchmark_name(points[i].benchmark) << " @ "
              << points[i].ghz << " GHz"
              << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  // speedups[panel][benchmark][clock]
  std::map<int, std::map<gnn::Benchmark, std::map<double, double>>> speedups;
  std::map<int, std::map<gnn::Benchmark, double>> sim_ms_at_max_clock;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return 1;
    const Point& pt = points[i];
    const auto t7 = baseline::table7_row(pt.benchmark);
    const double base_ms = panels[pt.panel].vs_gpu ? t7.gpu_ms : t7.cpu_ms;
    speedups[pt.panel][pt.benchmark][pt.ghz] = base_ms / results[i].stats.millis;
    if (pt.ghz == clocks.back()) {
      sim_ms_at_max_clock[pt.panel][pt.benchmark] = results[i].stats.millis;
    }
  }

  for (int p = 0; p < 3; ++p) {
    std::cout << "\n--- " << panels[p].title << " ---\n";
    std::vector<std::string> header = {"Benchmark"};
    for (const double ghz : clocks) {
      header.push_back("speedup @ " + format_double(ghz, 1) + " GHz");
    }
    header.push_back("simulated ms @ " + format_double(clocks.back(), 1) +
                     " GHz");
    Table t(header);
    double log_sum = 0.0;
    for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
      std::vector<std::string> row = {gnn::benchmark_name(b)};
      for (const double ghz : clocks) {
        row.push_back(format_speedup(speedups[p][b][ghz]));
      }
      row.push_back(format_double(sim_ms_at_max_clock[p][b], 3));
      t.add_row(std::move(row));
      log_sum += std::log(speedups[p][b][clocks.back()]);
    }
    t.print(std::cout);
    std::cout << "geomean speedup @ " << clocks.back()
              << " GHz: " << format_speedup(std::exp(log_sum / 6.0)) << "\n";
  }

  // Headline shape checks from the paper.
  std::cout << "\n--- Shape checks vs the paper ---\n";
  const double gat_cpu = speedups[0][gnn::Benchmark::kGatCora][clocks.back()];
  const double pgnn_cpu =
      speedups[0][gnn::Benchmark::kPgnnDblp][clocks.back()];
  const double mpnn_flops =
      speedups[2][gnn::Benchmark::kMpnnQm9][clocks.back()];
  std::cout << "  'up to ~18x over CPU at iso-BW'    : best CPU iso-BW "
               "speedup (GAT) = "
            << format_speedup(gat_cpu) << "\n";
  std::cout << "  'PGNN sees a ~12% slowdown'        : PGNN CPU iso-BW "
               "speedup = "
            << format_speedup(pgnn_cpu) << " (paper ~0.89x)\n";
  std::cout << "  'MPNN over 60x at GPU iso-FLOPS'   : MPNN iso-FLOPS "
               "speedup = "
            << format_speedup(mpnn_flops) << "\n";
  if (!quick) {
    // Memory-bound benchmarks barely move between 1.2 and 2.4 GHz.
    for (const gnn::Benchmark b :
         {gnn::Benchmark::kGcnCora, gnn::Benchmark::kGcnCiteseer}) {
      const double ratio = speedups[0][b][2.4] / speedups[0][b][1.2];
      std::cout << "  '" << gnn::benchmark_name(b)
                << " is memory-bound'  : speedup(2.4)/speedup(1.2) = "
                << format_double(ratio, 2) << " (paper: ~1)\n";
    }
  }
  return 0;
}
