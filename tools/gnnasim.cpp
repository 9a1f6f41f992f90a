// gnnasim — command-line driver for the GNN accelerator simulator.
//
//   gnnasim --list
//   gnnasim --benchmark GCN/Cora --config cpu-iso-bw --clock 2.4
//   gnnasim --benchmark MPNN/QM9_1000 --config gpu-iso-flops --energy
//   gnnasim --benchmark PGNN/DBLP_1 --threads 32 --partition block
//   gnnasim --batch runs.txt --jobs 4 --json results.json
//
// Prints a full run report: latency, utilizations, per-phase breakdown,
// and (with --energy) the estimated energy split. Batch mode runs every
// line of a manifest through the shared session caches, fanned across
// --jobs worker threads, and reports per-run latencies (machine-readable
// with --json).
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "accel/energy.hpp"
#include "accel/ir.hpp"
#include "baseline/baselines.hpp"
#include "common/table.hpp"
#include "sim/batch_runner.hpp"
#include "sim/manifest.hpp"
#include "sim/session.hpp"
#include "sim/stats_json.hpp"
#include "trace/profiler.hpp"

namespace {

using namespace gnna;

void usage(std::ostream& os) {
  os << "usage: gnnasim [options]\n"
        "  --list                     list benchmarks and configurations\n"
        "  --emit-program <file>      write --benchmark's GNNA-IR; no run\n"
        "  --energy                   print the energy breakdown\n"
        "  --batch <manifest>         one run per line (see --help-batch)\n"
        "  --jobs <n>                 worker threads for --batch (default 1)\n"
        "  --json <file>              run stats JSON (an array for --batch)\n"
        "  --help-batch               the batch manifest format\n"
        "  --help                     this text\n"
        "run options (each is also a manifest key: --mem-banks 4 is"
        " mem_banks=4;\nin --batch they default every line):\n";
  sim::print_run_options(os);
}

void usage_batch(std::ostream& os) {
  os << "batch manifest format: one run per line, `#' comments, tokens\n"
        "  benchmark=GCN/Cora config=gpu-iso-bw clock=1.2 threads=32 \\\n"
        "      partition=block seed=7 repeat=4 verify=0\n"
        "`benchmark' is required per line (with program=, it names the\n"
        "dataset); `repeat=N' expands the line into N identical runs. Every\n"
        "other key is a run option that defaults to the command line's\n"
        "value; mem_* and tile_* keys override the line's config wherever\n"
        "they appear on the line. Keys:\n";
  sim::print_run_options(os, /*manifest_keys=*/true);
}

void print_single_run_report(const accel::RunStats& rs, gnn::Benchmark b,
                             const accel::AcceleratorConfig& cfg,
                             bool want_energy) {
  std::cout << "benchmark : " << gnn::benchmark_name(b) << '\n';
  std::cout << "config    : " << cfg.name << " @ " << cfg.core_clock.ghz()
            << " GHz, " << cfg.tile_params.gpe_threads << " GPE threads\n\n";

  Table t({"Metric", "Value"});
  t.add_row({"latency", format_double(rs.millis, 3) + " ms (" +
                            std::to_string(rs.cycles) + " NoC cycles)"});
  t.add_row({"mean memory bandwidth",
             format_double(rs.mean_bandwidth_gbps, 1) + " GB/s (" +
                 format_percent(rs.bandwidth_utilization) + " of peak)"});
  if (rs.mem_scheduler == "frfcfs") {
    t.add_row({"mem scheduler",
               "frfcfs (row-hit rate " + format_percent(rs.mem_row_hit_rate) +
                   ", mean window occupancy " +
                   format_double(rs.mem_queue_occupancy, 1) + ")"});
  }
  t.add_row({"DNA utilization", format_percent(rs.dna_utilization)});
  t.add_row({"GPE utilization", format_percent(rs.gpe_utilization)});
  t.add_row({"AGG utilization", format_percent(rs.agg_utilization)});
  t.add_row({"work items retired", std::to_string(rs.tasks_completed)});
  t.add_row({"NoC packets", std::to_string(rs.packets_delivered)});
  t.add_row({"avg packet latency",
             format_double(rs.avg_packet_latency, 1) + " cycles"});
  const auto t7 = baseline::table7_row(b);
  t.add_row({"speedup vs CPU baseline", format_speedup(t7.cpu_ms / rs.millis)});
  t.add_row({"speedup vs GPU baseline", format_speedup(t7.gpu_ms / rs.millis)});
  t.print(std::cout);

  std::cout << "\nper-phase breakdown:\n";
  Table pt({"Phase", "Cycles", "Share", "Mem bytes"});
  for (const auto& ph : rs.phases) {
    pt.add_row({ph.name, std::to_string(ph.cycles),
                format_percent(static_cast<double>(ph.cycles) /
                               static_cast<double>(rs.cycles)),
                std::to_string(ph.mem_bytes_served)});
  }
  pt.print(std::cout);

  if (want_energy) {
    const accel::EnergyBreakdown e = accel::estimate_energy(rs, cfg);
    std::cout << "\nenergy breakdown (activity-counter model):\n";
    Table et({"Component", "uJ", "Share"});
    const auto add = [&](const std::string& n, double uj) {
      et.add_row({n, format_double(uj, 2), format_percent(uj / e.total_uj())});
    };
    add("DRAM", e.dram_uj);
    add("NoC", e.noc_uj);
    add("DNA", e.dna_uj);
    add("AGG", e.agg_uj);
    add("DNQ", e.dnq_uj);
    add("GPE", e.gpe_uj);
    add("leakage", e.leakage_uj);
    et.add_row({"total", format_double(e.total_uj(), 2), "100%"});
    et.print(std::cout);
    std::cout << "DRAM bytes wasted on 64B-line padding: "
              << format_percent(e.dram_waste_fraction) << '\n';
  }
}

/// Writes `emit`'s JSON to `path`, if one is given; false, with a message
/// on stderr, when it cannot.
bool write_json_file(const std::string& path,
                     const std::function<void(std::ostream&)>& emit) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  emit(out);
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  sim::RunOptions options;
  bool want_energy = false;
  std::string batch_path;
  std::string json_path;
  unsigned jobs = 1;
  std::string emit_program_path;

  sim::RunRequest req;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // The value of a tool-local flag; exits 2 when it is missing.
      auto next = [&](const char* what) -> std::string {
        if (i + 1 >= argc || argv[i + 1][0] == '\0') {
          throw std::invalid_argument(arg + " needs " + what);
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      }
      if (arg == "--help-batch") {
        usage_batch(std::cout);
        return 0;
      }
      if (arg == "--list") {
        std::cout << "benchmarks:\n";
        for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
          std::cout << "  " << gnn::benchmark_name(b) << '\n';
        }
        std::cout << "configurations:\n  cpu-iso-bw\n  gpu-iso-bw\n"
                     "  gpu-iso-flops\n";
        return 0;
      }
      if (options.parse_flag(argc, argv, i)) continue;
      if (arg == "--energy") {
        want_energy = true;
      } else if (arg == "--batch") {
        batch_path = next("a manifest file");
      } else if (arg == "--jobs") {
        jobs = sim::parse_jobs(argc, argv, i);
      } else if (arg == "--json") {
        json_path = next("a file name");
      } else if (arg == "--emit-program") {
        emit_program_path = next("an output file");
      } else {
        std::cerr << "error: unknown option " << arg << "\n";
        usage(std::cerr);
        return 2;
      }
    }
    options.apply(req);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }

  sim::Session& session = sim::Session::global();

  // ---- Compile-only mode: emit the benchmark's program as GNNA-IR text.
  if (!emit_program_path.empty()) {
    if (!req.benchmark) {
      std::cerr << "error: --emit-program needs --benchmark\n";
      return 2;
    }
    if (!batch_path.empty() || !req.program_file.empty()) {
      std::cerr << "error: --emit-program excludes --batch and --program\n";
      return 2;
    }
    try {
      const sim::Session::Resolved r = session.resolve(req);
      accel::ir::save_file(*r.program, emit_program_path);
      std::cout << "wrote " << emit_program_path << " ("
                << r.program->name << ", hash " << accel::ir::hash_hex(r.hash)
                << ")\n";
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    return 0;
  }

  // ---- Batch mode: manifest -> BatchRunner -> summary table / JSON.
  if (!batch_path.empty()) {
    if (!req.program_file.empty()) {
      std::cerr << "error: --program is single-run only; use program= "
                   "manifest tokens in --batch mode\n";
      return 2;
    }
    std::ifstream manifest(batch_path);
    if (!manifest) {
      std::cerr << "error: cannot open manifest " << batch_path << '\n';
      return 2;
    }
    std::vector<sim::RunRequest> requests;
    try {
      requests = sim::parse_batch_manifest(manifest, sim::RunRequest{},
                                           batch_path, options);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 2;
    }
    if (requests.empty()) {
      std::cerr << "error: " << batch_path << " names no runs\n";
      return 2;
    }
    if (want_energy) {
      std::cerr << "warning: --energy is single-run only; ignored in "
                   "--batch mode\n";
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
      sim::per_run_paths(requests[i].trace, i);
    }

    sim::BatchRunner runner(session, jobs);
    runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
      std::cerr << "[gnnasim] run " << i + 1 << '/' << requests.size() << ' '
                << gnn::benchmark_name(*requests[i].benchmark)
                << (r.ok() ? " done (" + format_double(r.stats.millis, 3) +
                                 " ms)"
                           : " FAILED")
                << '\n';
    });
    const std::vector<sim::RunResult> results = runner.run(requests);

    std::cout << "batch     : " << batch_path << " (" << results.size()
              << " runs, " << runner.jobs() << " jobs)\n\n";
    Table t({"#", "Benchmark", "Config", "GHz", "Thr", "Seed",
             "Latency (ms)", "Cycles"});
    std::size_t failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sim::RunRequest& rq = requests[i];
      const sim::RunResult& r = results[i];
      const accel::AcceleratorConfig cfg = rq.effective_config();
      t.add_row({std::to_string(i), gnn::benchmark_name(*rq.benchmark),
                 cfg.name, format_double(cfg.core_clock.ghz(), 1),
                 std::to_string(cfg.tile_params.gpe_threads),
                 std::to_string(rq.seed),
                 r.ok() ? format_double(r.stats.millis, 3) : "error",
                 r.ok() ? std::to_string(r.stats.cycles) : r.error});
      if (!r.ok()) ++failures;
    }
    t.print(std::cout);
    const auto cc = session.cache_counters();
    std::cout << "\ncache     : " << cc.dataset_hits << '/'
              << cc.dataset_hits + cc.dataset_misses << " dataset hits, "
              << cc.program_hits << '/'
              << cc.program_hits + cc.program_misses + cc.program_dedupes
              << " program hits, " << cc.program_dedupes
              << " deduped by IR hash\n";

    if (!write_json_file(json_path, [&](std::ostream& os) {
          sim::write_batch_json(os, results);
        })) {
      return 2;
    }
    if (failures > 0) {
      std::cerr << "error: " << failures << " of " << results.size()
                << " runs failed\n";
      return 1;
    }
    return 0;
  }

  // ---- Single-run mode.
  if (!req.benchmark) {
    if (!req.program_file.empty()) {
      std::cerr << "error: --program also needs --benchmark (it names the "
                   "dataset the program runs against)\n";
      return 2;
    }
    usage(std::cerr);
    return 2;
  }

  accel::RunStats rs;
  try {
    rs = session.run(req);
  } catch (const std::exception& e) {
    // Watchdog diagnostics land here; the report is in the message (and in
    // --deadlock-report's file if given). So does a request Session::run
    // rejects, e.g. profile-guided partitioning without a profile, or an
    // output file that cannot be opened.
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  print_single_run_report(rs, *req.benchmark, req.effective_config(),
                          want_energy);

  if (rs.profile) {
    std::cout << '\n';
    trace::print_profile(std::cout, *rs.profile);
  }
  if (rs.attribution) {
    const trace::AttributionReport& ar = *rs.attribution;
    std::cout << "\nattribution: " << ar.tiles.size()
              << " tiles, busy max/mean "
              << format_double(ar.busy_max_mean(), 3) << ", flit gini "
              << format_double(ar.flit_gini(), 3) << ", "
              << ar.vertices.size()
              << " vertices charged (gnnatrace hotspots for the tables)\n";
  }

  const bool written = write_json_file(json_path, [&](std::ostream& os) {
    sim::write_run_stats_json(os, rs);
    os << '\n';
  });
  return written ? 0 : 2;
}
