// Simulator benchmark program. Runs one named workload through the public
// sim::Session / sim::BatchRunner / accel::AcceleratorSim API and prints one
// JSON line: the metrics, the exact statistics pinned for the default seed,
// and the correctness ledger. perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and the metric map.
//
//   gnna_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics (static stages, session, batch, a traced
// pass with a ProbeSink per run, and a NoC replay per run).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/analysis.hpp"
#include "accel/compiler.hpp"
#include "accel/ir.hpp"
#include "accel/verify.hpp"
#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "probe.hpp"
#include "sim/batch_runner.hpp"
#include "sim/session.hpp"

namespace gnna::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Cold set-ups per end-to-end run, at least, and the host time they fill
/// at least; setup_s is their median.
constexpr std::size_t kMinSetupReps = 5;
constexpr double kSetupSeconds = 0.25;
/// Workload repetitions per end-to-end run, at least; more while time is
/// left. wall_s is their median.
constexpr std::size_t kMinBodyReps = 2;
/// Repetitions of each static stage in the per-layer probe (median).
constexpr int kStageReps = 3;
/// Molecules in tile-mpnn-qm9.
constexpr std::uint32_t kMolecules = 150;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median host seconds of `reps` calls of `fn`.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// A workload: how to build its inputs from the seed and the requests that
/// run on them.
struct Workload {
  std::string name;
  unsigned jobs = 1;
  /// The workload's dataset, generated from the seed.
  std::function<graph::Dataset()> make_dataset;
  /// Models compiled over that dataset.
  std::vector<gnn::ModelSpec> models;
  /// Cold set-up on `session`: generate, compile and resolve everything the
  /// requests need, and return the requests.
  std::function<std::vector<sim::RunRequest>(sim::Session&)> prepare;
};

/// QM9-like molecules shaped like benchutil::make_qm9_subset: 12-13 atoms
/// and 12-13 bonds each, 13 vertex and 5 edge features.
graph::Dataset make_molecules(std::uint64_t seed, std::uint32_t count) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec = {"QM9_" + std::to_string(count), count, 0, 0, 13, 5, 73};
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId n = 12 + (i % 3 == 0 ? 1 : 0);
    const EdgeId e = 12 + (i % 12 == 0 ? 1 : 0);
    ds.graphs.push_back(graph::generate_molecule_graph(rng, n, e));
    ds.undirected.push_back(ds.graphs.back().symmetrized());
    std::vector<float> nf(std::size_t{n} * 13);
    for (auto& x : nf) x = rng.next_float(0.0F, 1.0F);
    ds.node_features.push_back(std::move(nf));
    std::vector<float> ef(std::size_t{e} * 5);
    for (auto& x : ef) x = rng.next_float(0.0F, 1.0F);
    ds.edge_features.push_back(std::move(ef));
  }
  ds.spec.total_nodes = ds.total_nodes();
  ds.spec.total_edges = ds.total_edges();
  return ds;
}

/// Resolve every benchmark request once, so the session's caches hold the
/// datasets and programs the requests need.
std::vector<sim::RunRequest> resolve_all(sim::Session& session,
                                         std::vector<sim::RunRequest> reqs) {
  for (const auto& r : reqs) (void)session.resolve(r);
  return reqs;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  using accel::AcceleratorConfig;
  using gnn::Benchmark;
  Workload w;
  w.name = name;
  if (name == "mesh-gcn-citeseer") {
    w.make_dataset = [seed] {
      return graph::make_dataset(graph::DatasetId::kCiteseer, seed);
    };
    w.models = {gnn::make_benchmark_model(Benchmark::kGcnCiteseer)};
    w.prepare = [seed](sim::Session& s) {
      sim::RunRequest r;
      r.benchmark = Benchmark::kGcnCiteseer;
      r.seed = seed;
      r.config = AcceleratorConfig::gpu_iso_bw();
      return resolve_all(s, {r});
    };
  } else if (name == "tile-mpnn-qm9") {
    w.make_dataset = [seed] { return make_molecules(seed, kMolecules); };
    w.models = {gnn::make_mpnn(13, 5, 73)};
    w.prepare = [make = w.make_dataset,
                 model = w.models.front()](sim::Session& s) {
      auto ds = std::make_shared<const graph::Dataset>(make());
      const sim::Session::Resolved res = s.compile(model, ds);
      sim::RunRequest r;
      r.program = res.program;
      r.dataset = res.dataset;
      r.config = AcceleratorConfig::cpu_iso_bw();
      r.label = "MPNN/" + res.dataset->spec.name;
      return std::vector<sim::RunRequest>{r};
    };
  } else if (name == "sweep-cora") {
    const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
    w.jobs = std::min(4U, hw);
    w.make_dataset = [seed] {
      return graph::make_dataset(graph::DatasetId::kCora, seed);
    };
    w.models = {gnn::make_benchmark_model(Benchmark::kGcnCora),
                gnn::make_benchmark_model(Benchmark::kGatCora)};
    w.prepare = [seed](sim::Session& s) {
      std::vector<sim::RunRequest> reqs;
      for (const Benchmark b : {Benchmark::kGcnCora, Benchmark::kGatCora}) {
        for (const bool gpu : {false, true}) {
          for (const auto sched :
               {mem::MemScheduler::kInOrder, mem::MemScheduler::kFrFcfs}) {
            for (const double ghz : {1.2, 2.4}) {
              sim::RunRequest r;
              r.benchmark = b;
              r.seed = seed;
              r.config = gpu ? AcceleratorConfig::gpu_iso_bw()
                             : AcceleratorConfig::cpu_iso_bw();
              r.config.mem_params.scheduler = sched;
              r.clock_ghz = ghz;
              reqs.push_back(r);
            }
          }
        }
      }
      return resolve_all(s, std::move(reqs));
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (mesh-gcn-citeseer, tile-mpnn-qm9, "
                                "sweep-cora)");
  }
  return w;
}

/// The configuration Session::run executes a request on.
accel::AcceleratorConfig effective_config(const sim::RunRequest& r) {
  accel::AcceleratorConfig cfg = r.config;
  if (r.clock_ghz) cfg = cfg.with_core_clock(*r.clock_ghz);
  if (r.threads) cfg.tile_params.gpe_threads = *r.threads;
  return cfg;
}

std::string run_label(const sim::RunRequest& r, std::size_t index) {
  std::ostringstream os;
  os << "run " << index << " ("
     << (r.benchmark ? gnn::benchmark_name(*r.benchmark) : r.label) << ", "
     << r.config.name << ", "
     << mem::mem_scheduler_name(r.config.mem_params.scheduler);
  if (r.clock_ghz) os << ", " << *r.clock_ghz << " GHz";
  os << ')';
  return os.str();
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every simulated statistic a benchmark run checks, by name. Doubles are
/// compared bit for bit.
std::vector<std::pair<std::string, std::string>> fingerprint(
    const accel::RunStats& rs) {
  std::vector<std::pair<std::string, std::string>> f = {
      {"cycles", std::to_string(rs.cycles)},
      {"packets_delivered", std::to_string(rs.packets_delivered)},
      {"noc_flit_hops", std::to_string(rs.noc_flit_hops)},
      {"noc_flits_delivered", std::to_string(rs.noc_flits_delivered)},
      {"avg_packet_latency", exact(rs.avg_packet_latency)},
      {"mem_bytes_requested", std::to_string(rs.mem_bytes_requested)},
      {"mem_bytes_served", std::to_string(rs.mem_bytes_served)},
      {"mem_row_hits", std::to_string(rs.mem_row_hits)},
      {"mem_row_misses", std::to_string(rs.mem_row_misses)},
      {"mem_queue_occupancy", exact(rs.mem_queue_occupancy)},
      {"tasks_completed", std::to_string(rs.tasks_completed)},
      {"gpe_actions", std::to_string(rs.gpe_actions)},
      {"alloc_stalls", std::to_string(rs.alloc_stalls)},
      {"dnq_words", std::to_string(rs.dnq_words)},
      {"dnq_queue_switches", std::to_string(rs.dnq_queue_switches)},
      {"dna_macs", std::to_string(rs.dna_macs)},
      {"agg_words_reduced", std::to_string(rs.agg_words_reduced)},
      {"gpe_utilization", exact(rs.gpe_utilization)},
      {"dna_utilization", exact(rs.dna_utilization)},
      {"agg_utilization", exact(rs.agg_utilization)},
  };
  for (const auto& p : rs.phases) {
    f.emplace_back("phase." + p.name + ".cycles", std::to_string(p.cycles));
    f.emplace_back("phase." + p.name + ".mem_bytes_served",
                   std::to_string(p.mem_bytes_served));
  }
  return f;
}

/// Name of the first statistic that differs, or "" when all agree.
std::string first_difference(const accel::RunStats& a,
                             const accel::RunStats& b) {
  const auto fa = fingerprint(a);
  const auto fb = fingerprint(b);
  for (std::size_t i = 0; i < std::min(fa.size(), fb.size()); ++i) {
    if (fa[i] != fb[i]) return fa[i].first;
  }
  return fa.size() == fb.size() ? "" : "phases";
}

/// Simulations attempted and the ones that threw or failed a check. Every
/// breach is printed to stderr with the statistic that moved.
class Ledger {
 public:
  std::size_t attempt() { return attempted_++; }

  void fail(std::size_t sim, const std::string& what) {
    failed_.insert(sim);
    messages_.push_back(what);
    std::cerr << "perfbench: FAILED " << what << '\n';
  }

  /// Check one finished simulation: it ran, its static bound does not
  /// exceed its measured cycles, and (given a reference) every statistic
  /// matches the reference exactly.
  void check(std::size_t sim, const std::string& label,
             const sim::RunResult& r, const accel::RunStats* reference,
             const char* against) {
    if (!r.ok()) {
      fail(sim, label + ": " + r.error.substr(0, r.error.find('\n')));
      return;
    }
    if (!r.stats.static_model ||
        r.stats.static_model->bound_cycles >
            static_cast<double>(r.stats.cycles)) {
      fail(sim, label + ": analysis.bound_cycles exceeds measured cycles");
    }
    if (reference != nullptr) {
      const std::string moved = first_difference(r.stats, *reference);
      if (!moved.empty()) {
        fail(sim, label + ": stat '" + moved + "' differs from " + against);
      }
    }
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_.size(); }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t attempted_ = 0;
  std::set<std::size_t> failed_;
  std::vector<std::string> messages_;
};

using Metrics = std::map<std::string, double>;

/// Run one request alone on the calling thread.
sim::RunResult run_one(sim::Session& session, const sim::RunRequest& req) {
  return sim::BatchRunner(session, 1).run({req}).front();
}

/// Exact statistics pinned for the default seed.
Metrics pins(const std::vector<sim::RunResult>& results) {
  Metrics p;
  for (const auto& r : results) {
    p["sim_cycles"] += static_cast<double>(r.stats.cycles);
    p["noc.packets"] += static_cast<double>(r.stats.packets_delivered);
    p["noc.flit_hops"] += static_cast<double>(r.stats.noc_flit_hops);
    p["mem.bytes_served"] += static_cast<double>(r.stats.mem_bytes_served);
    p["gpe.tasks_completed"] += static_cast<double>(r.stats.tasks_completed);
  }
  return p;
}

/// Peak resident memory of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, restarts at exec, so it does not report the
/// launching process's footprint when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Cold set-up of `w` on a fresh session; returns its host seconds.
double cold_setup(const Workload& w, std::unique_ptr<sim::Session>& session,
                  std::vector<sim::RunRequest>& reqs) {
  reqs.clear();
  session = std::make_unique<sim::Session>();
  const auto t0 = Clock::now();
  reqs = w.prepare(*session);
  return seconds_since(t0);
}

/// End-to-end metrics, tracing off: a cold set-up, the workload body
/// repeated on the warm session until `seconds` have passed, then more cold
/// set-ups. The extra set-ups run last so that their allocation churn
/// neither shapes the heap the body runs on nor counts in its peak RSS.
Metrics end_to_end(const Workload& w, double seconds, Ledger& ledger,
                   std::vector<sim::RunResult>& reference) {
  std::unique_ptr<sim::Session> session;
  std::vector<sim::RunRequest> reqs;
  std::vector<double> setup = {cold_setup(w, session, reqs)};

  std::vector<double> walls;
  const auto start = Clock::now();
  while (walls.size() < kMinBodyReps || seconds_since(start) < seconds) {
    sim::BatchRunner runner(*session, w.jobs);
    const auto t0 = Clock::now();
    std::vector<sim::RunResult> results = runner.run(reqs);
    walls.push_back(seconds_since(t0));
    std::cerr << "perfbench: " << w.name << " repetition " << walls.size()
              << ": " << walls.back() << " s\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      ledger.check(ledger.attempt(), run_label(reqs[i], i), results[i],
                   reference.empty() ? nullptr : &reference[i].stats,
                   "the first repetition");
    }
    if (reference.empty()) reference = std::move(results);
  }
  const double rss = peak_rss_mb();

  const auto setup_start = Clock::now();
  while (setup.size() < kMinSetupReps ||
         seconds_since(setup_start) < kSetupSeconds) {
    setup.push_back(cold_setup(w, session, reqs));
  }

  Metrics m;
  const double cycles = pins(reference)["sim_cycles"];
  m["wall_s"] = median(walls);
  m["sim_mcycles_per_s"] = cycles / m["wall_s"] / 1e6;
  m["sim_cycles"] = cycles;
  m["setup_s"] = median(setup);
  m["peak_rss_mb"] = rss;
  return m;
}

/// Per-layer metrics: the static stages timed alone, the session and batch
/// layers, then a serial untraced pass, a traced pass and a NoC replay per
/// run.
Metrics per_layer(const Workload& w, std::uint64_t seed,
                  const std::string& spans_path, Ledger& ledger,
                  std::vector<sim::RunResult>& reference) {
  Metrics m;

  // Static stages, on the workload's own inputs.
  sim::Session prep;
  const std::vector<sim::RunRequest> reqs = w.prepare(prep);
  const std::size_t n = reqs.size();
  m["graph.make_dataset_s"] =
      time_median(kStageReps, [&] { (void)w.make_dataset(); });
  const graph::Dataset ds = w.make_dataset();
  for (const auto& model : w.models) {
    accel::CompiledProgram prog;
    m["compiler.compile_s"] += time_median(kStageReps, [&] {
      prog = accel::ProgramCompiler{}.compile(model, ds);
    });
    m["ir.content_hash_s"] += time_median(
        kStageReps, [&] { (void)accel::ir::content_hash(prog); });
  }
  for (const auto& req : reqs) {
    const sim::Session::Resolved r = prep.resolve(req);
    const accel::AcceleratorConfig cfg = effective_config(req);
    accel::VerifyReport report;
    m["verify.verify_s"] += time_median(kStageReps, [&] {
      report = accel::verify_program(*r.program, cfg.tile_params,
                                     r.dataset.get(), &cfg, req.partition);
    });
    m["verify.errors"] += static_cast<double>(report.num_errors());
    m["verify.warnings"] += static_cast<double>(report.num_warnings());
    accel::AnalysisOptions aopt;
    aopt.dataset = r.dataset.get();
    aopt.partition = req.partition;
    m["analysis.analyze_s"] += time_median(kStageReps, [&] {
      (void)accel::analyze_program(*r.program, cfg, aopt);
    });
  }

  // Session layer: resolve everything on a cold session.
  {
    sim::Session cold;
    const auto t0 = Clock::now();
    for (const auto& req : reqs) (void)cold.resolve(req);
    m["session.resolve_s"] = seconds_since(t0);
  }

  // Batch layer: the untraced batch on a cold session, as a sweep runs.
  sim::Session session;
  const auto t_batch = Clock::now();
  reference = sim::BatchRunner(session, w.jobs).run(reqs);
  const double batch_wall = seconds_since(t_batch);
  for (std::size_t i = 0; i < n; ++i) {
    ledger.check(ledger.attempt(), run_label(reqs[i], i), reference[i],
                 nullptr, "");
  }
  const sim::Session::CacheCounters cc = session.cache_counters();
  m["session.dataset_hits"] = static_cast<double>(cc.dataset_hits);
  m["session.dataset_misses"] = static_cast<double>(cc.dataset_misses);
  m["session.program_hits"] = static_cast<double>(cc.program_hits);
  m["session.program_misses"] = static_cast<double>(cc.program_misses);
  m["session.program_dedupes"] = static_cast<double>(cc.program_dedupes);

  // Serial pass: each request alone; every batch slot must match it.
  double serial_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const sim::RunResult r = run_one(session, reqs[i]);
    serial_s += seconds_since(t0);
    ledger.check(ledger.attempt(), run_label(reqs[i], i) + " serial", r,
                 &reference[i].stats, "its batch slot");
  }
  const auto workers = static_cast<double>(
      std::min<std::size_t>(std::max(1U, w.jobs), n));
  m["batch.parallel_efficiency"] = serial_s / (workers * batch_wall);

  // Traced pass: a ProbeSink per run; cycles must not move.
  std::vector<std::unique_ptr<ProbeSink>> sinks;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sinks.push_back(std::make_unique<ProbeSink>(i + 1));
    sim::RunRequest req = reqs[i];
    req.trace.sink = sinks.back().get();
    sinks.back()->begin_run(run_label(reqs[i], i));
    const auto t0 = Clock::now();
    const sim::RunResult r = run_one(session, req);
    traced_s += seconds_since(t0);
    sinks.back()->end_run();
    ledger.check(ledger.attempt(), run_label(reqs[i], i) + " traced", r,
                 &reference[i].stats, "the untraced run");
  }

  // NoC replay of each traced run's sends.
  double replay_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const accel::RunStats& rs = reference[i].stats;
    const std::size_t sim_id = ledger.attempt();
    const ReplayResult rr =
        replay_noc(effective_config(reqs[i]), sinks[i]->sends(), rs.cycles);
    replay_s += rr.host_s;
    const std::string label = run_label(reqs[i], i) + " NoC replay";
    if (rr.packets_delivered != rs.packets_delivered) {
      ledger.fail(sim_id, label + ": stat 'noc.packets' differs");
    }
    if (rr.flit_hops != rs.noc_flit_hops) {
      ledger.fail(sim_id, label + ": stat 'noc.flit_hops' differs");
    }
    if (rr.avg_packet_latency != rs.avg_packet_latency) {
      ledger.fail(sim_id,
                  label + ": stat 'noc.avg_packet_latency_cycles' differs");
    }
  }

  // Aggregate the modeled statistics over the workload's runs.
  double cycles = 0.0;
  double tile_cycles = 0.0;
  double packets = 0.0;
  double latency_sum = 0.0;
  double noc_busy = 0.0;
  double mem_requested = 0.0;
  double row_hits = 0.0;
  double row_accesses = 0.0;
  double events = 0.0;
  double bound_ratio = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const accel::RunStats& rs = reference[i].stats;
    const ProbeSink& sink = *sinks[i];
    const auto c = static_cast<double>(rs.cycles);
    const double tc = c * effective_config(reqs[i]).num_tiles();
    cycles += c;
    tile_cycles += tc;
    packets += static_cast<double>(rs.packets_delivered);
    latency_sum += rs.avg_packet_latency *
                   static_cast<double>(rs.packets_delivered);
    noc_busy += static_cast<double>(sink.noc_busy_cycles());
    mem_requested += static_cast<double>(rs.mem_bytes_requested);
    row_hits += static_cast<double>(rs.mem_row_hits);
    row_accesses += static_cast<double>(rs.mem_row_hits + rs.mem_row_misses);
    events += static_cast<double>(rs.gpe_actions + rs.noc_flit_hops +
                                  sink.mem_requests());
    if (rs.static_model && c > 0.0) {
      bound_ratio = std::max(bound_ratio, rs.static_model->bound_cycles / c);
    }
    for (const auto& p : rs.phases) {
      m["sim.phase." + p.name + ".cycles"] += static_cast<double>(p.cycles);
    }
    for (const Span& sp : sink.spans()) {
      if (sp.parent == 0) continue;
      m["sim.phase." + sp.name + ".host_s"] +=
          static_cast<double>(sp.end_ns - sp.start_ns) / 1e9;
    }
    m["noc.flit_hops"] += static_cast<double>(rs.noc_flit_hops);
    m["mem.bytes_served"] += static_cast<double>(rs.mem_bytes_served);
    m["mem.bandwidth_utilization"] += rs.bandwidth_utilization * c;
    m["mem.queue_occupancy"] += rs.mem_queue_occupancy * c;
    m["gpe.actions"] += static_cast<double>(rs.gpe_actions);
    m["gpe.tasks_completed"] += static_cast<double>(rs.tasks_completed);
    m["gpe.alloc_stalls"] += static_cast<double>(rs.alloc_stalls);
    m["gpe.utilization"] += rs.gpe_utilization * tc;
    m["dnq.words"] += static_cast<double>(rs.dnq_words);
    m["dnq.queue_switches"] += static_cast<double>(rs.dnq_queue_switches);
    m["dna.macs"] += static_cast<double>(rs.dna_macs);
    m["dna.utilization"] += rs.dna_utilization * tc;
    m["agg.words_reduced"] += static_cast<double>(rs.agg_words_reduced);
    m["agg.utilization"] += rs.agg_utilization * tc;
    for (const auto cat :
         {trace::Category::kGpe, trace::Category::kDnq, trace::Category::kDna,
          trace::Category::kAgg, trace::Category::kNoc,
          trace::Category::kMem}) {
      m[std::string("trace.events.") + trace::category_name(cat)] +=
          static_cast<double>(sink.events(cat));
    }
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  m["analysis.bound_over_measured"] = bound_ratio;
  m["sim.host_ns_per_cycle"] = ratio(serial_s * 1e9, cycles);
  m["sim.host_ns_per_event"] = ratio(serial_s * 1e9, events);
  m["noc.replay_s"] = replay_s;
  m["noc.replay_share"] = ratio(replay_s, serial_s);
  m["noc.replay_ns_per_cycle"] = ratio(replay_s * 1e9, cycles);
  m["noc.packets"] = packets;
  m["noc.avg_packet_latency_cycles"] = ratio(latency_sum, packets);
  m["noc.busy_cycle_frac"] = ratio(noc_busy, cycles);
  m["mem.useful_byte_frac"] = ratio(mem_requested, m["mem.bytes_served"]);
  m["mem.bandwidth_utilization"] =
      ratio(m["mem.bandwidth_utilization"], cycles);
  m["mem.queue_occupancy"] = ratio(m["mem.queue_occupancy"], cycles);
  m["mem.row_hit_rate"] = ratio(row_hits, row_accesses);
  m["gpe.utilization"] = ratio(m["gpe.utilization"], tile_cycles);
  m["dna.utilization"] = ratio(m["dna.utilization"], tile_cycles);
  m["agg.utilization"] = ratio(m["agg.utilization"], tile_cycles);
  m["trace.overhead_frac"] = ratio(traced_s - serial_s, serial_s);

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    std::vector<const ProbeSink*> all;
    for (const auto& s : sinks) all.push_back(s.get());
    write_spans(out, w.name, seed, all);
    if (!out) std::cerr << "perfbench: cannot write " << spans_path << '\n';
  }
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? ",\"" : "\"") + k + "\":" + number(v);
  }
  return out + "}";
}

int usage(const char* msg) {
  std::cerr << "gnna_perfbench: " << msg
            << "\nusage: gnna_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 2020;
  double seconds = 10.0;
  int trace_mode = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--spans") {
      spans_path = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || seconds < 0.0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("bad --trace");
      trace_mode = val == "1" ? 1 : 0;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (workload.empty()) return usage("--workload is required");

  const Workload w = make_workload(workload, seed);
  Ledger ledger;
  std::vector<sim::RunResult> reference;
  const Metrics metrics =
      trace_mode == 1 ? per_layer(w, seed, spans_path, ledger, reference)
                      : end_to_end(w, seconds, ledger, reference);

  std::string failures = "[";
  for (const auto& msg : ledger.messages()) {
    failures += (failures.size() > 1 ? ",\"" : "\"") + json_escape(msg) + "\"";
  }
  failures += "]";
  std::cout << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
            << ",\"trace\":" << trace_mode
            << ",\"attempted\":" << ledger.attempted()
            << ",\"failed\":" << ledger.failed()
            << ",\"failures\":" << failures
            << ",\"pins\":" << json_object(pins(reference))
            << ",\"metrics\":" << json_object(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace gnna::perfbench

int main(int argc, char** argv) {
  try {
    return gnna::perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "gnna_perfbench: " << e.what() << '\n';
    return 1;
  }
}
