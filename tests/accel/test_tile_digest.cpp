// Tile digest: every vertex program the GPE runs (GCN gather, GAT project
// plus edge phase, MPNN edge-DNA with the GRU on queue 1 plus its per-graph
// readout, PGNN multi-hop walks) simulated end to end on small seeded
// graphs and hashed over every trace callback, every sampler row and every
// RunStats counter. The scratchpads are shrunk until allocations fail, so
// the stall-and-retry path of each allocation site is part of the hash.
// A second set trips the progress watchdog mid-run and hashes its report,
// which prints every live thread's stage and loop counters. A seeded sweep
// over random graphs, configs, thread counts, memory schedulers and clocks
// runs each case three times, with the reference loop that ticks
// everything every cycle and with the jumping cycle loop traced and
// untraced, and requires the same output.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "accel/analysis.hpp"
#include "accel/compiler.hpp"
#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"
#include "sim/stats_json.hpp"

namespace gnna::accel {
namespace {

/// FNV-1a 64 over the little-endian bytes of each word.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(std::uint64_t{s.size()});
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hashes every callback, in order, with all of its arguments.
class HashSink final : public trace::TraceSink {
 public:
  explicit HashSink(Fnv1a& h) : h_(h) {}

  void complete(trace::Category cat, std::uint32_t unit, const char* name,
                double start, double dur, std::uint64_t a,
                std::uint64_t b) override {
    head('C', cat, unit, name);
    h_.add(start);
    h_.add(dur);
    h_.add(a);
    h_.add(b);
  }
  void instant(trace::Category cat, std::uint32_t unit, const char* name,
               double at, std::uint64_t a, std::uint64_t b) override {
    head('I', cat, unit, name);
    h_.add(at);
    h_.add(a);
    h_.add(b);
  }
  void counter(trace::Category cat, std::uint32_t unit, const char* name,
               double at, double value) override {
    head('N', cat, unit, name);
    h_.add(at);
    h_.add(value);
  }
  void phase_begin(const char* name, double at) override {
    h_.add(std::uint64_t{'B'});
    h_.add(std::string_view(name));
    h_.add(at);
  }
  void phase_end(const char* name, double at) override {
    h_.add(std::uint64_t{'E'});
    h_.add(std::string_view(name));
    h_.add(at);
  }
  void packet(std::uint32_t src_ep, std::uint32_t dst_ep, std::uint32_t owner,
              std::uint32_t flits, std::uint32_t hops,
              std::uint32_t payload_bytes) override {
    h_.add(std::uint64_t{'P'});
    h_.add(std::uint64_t{src_ep});
    h_.add(std::uint64_t{dst_ep});
    h_.add(std::uint64_t{owner});
    h_.add(std::uint64_t{flits});
    h_.add(std::uint64_t{hops});
    h_.add(std::uint64_t{payload_bytes});
  }
  void charge(trace::Category cat, std::uint32_t unit, std::uint32_t owner,
              double cycles) override {
    head('G', cat, unit, "");
    h_.add(std::uint64_t{owner});
    h_.add(cycles);
  }

 private:
  void head(char kind, trace::Category cat, std::uint32_t unit,
            const char* name) {
    h_.add(std::uint64_t{static_cast<unsigned char>(kind)});
    h_.add(std::uint64_t{static_cast<std::uint8_t>(cat)});
    h_.add(std::uint64_t{unit});
    h_.add(std::string_view(name));
  }

  Fnv1a& h_;
};

void hash_stats(Fnv1a& h, const RunStats& rs) {
  h.add(rs.cycles);
  h.add(rs.seconds);
  h.add(rs.millis);
  h.add(rs.mem_bytes_requested);
  h.add(rs.mem_bytes_served);
  h.add(rs.mean_bandwidth_gbps);
  h.add(rs.bandwidth_utilization);
  h.add(rs.mem_scheduler);
  h.add(rs.mem_row_hits);
  h.add(rs.mem_row_misses);
  h.add(rs.mem_row_hit_rate);
  h.add(rs.mem_queue_occupancy);
  h.add(rs.mem_queue_occupancy_max);
  for (const auto& b : rs.mem_banks) {
    h.add(std::uint64_t{b.mem});
    h.add(std::uint64_t{b.bank});
    h.add(b.row_hits);
    h.add(b.row_misses);
    h.add(b.busy_frac);
  }
  h.add(rs.dna_utilization);
  h.add(rs.gpe_utilization);
  h.add(rs.agg_utilization);
  h.add(rs.tasks_completed);
  h.add(rs.packets_delivered);
  h.add(rs.avg_packet_latency);
  h.add(rs.dnq_queue_switches);
  h.add(rs.alloc_stalls);
  h.add(rs.noc_flit_hops);
  h.add(rs.noc_flits_delivered);
  h.add(rs.agg_words_reduced);
  h.add(rs.dna_macs);
  h.add(rs.gpe_actions);
  h.add(rs.dnq_words);
  for (const PhaseStats& p : rs.phases) {
    h.add(p.name);
    h.add(p.cycles);
    h.add(p.mem_bytes_served);
    h.add(p.tasks);
  }
}

enum class Program : std::uint8_t { kGcn, kGat, kMpnn, kPgnn };

constexpr const char* kProgramNames[] = {"Gcn", "Gat", "Mpnn", "Pgnn"};

graph::Dataset digest_dataset(Program p) {
  Rng rng(2020 + static_cast<std::uint64_t>(p));
  graph::Dataset ds;
  const auto add = [&ds](graph::Graph g) {
    ds.undirected.push_back(g.symmetrized());
    ds.graphs.push_back(std::move(g));
  };
  switch (p) {
    case Program::kGcn:
    case Program::kGat:
      add(graph::generate_citation_graph(rng, 48, 160));
      ds.spec = {"digest", 1, 48, 160, 8, 0, 3};
      break;
    case Program::kMpnn:
      for (int i = 0; i < 6; ++i) {
        add(graph::generate_molecule_graph(rng, 9, 10));
      }
      ds.spec = {"digest", 6, 54, 60, 5, 3, 4};
      break;
    case Program::kPgnn:
      add(graph::generate_community_graph(rng, 40, 80, 4));
      ds.spec = {"digest", 1, 40, 80, 8, 0, 3};
      break;
  }
  return ds;
}

gnn::ModelSpec digest_model(Program p) {
  switch (p) {
    case Program::kGcn: return gnn::make_gcn(8, 3, 4);
    case Program::kGat: return gnn::make_gat(8, 3, 2, 4);
    case Program::kMpnn: return gnn::make_mpnn(5, 3, 4, 8, 2);
    case Program::kPgnn: return gnn::make_pgnn(8, 3, 2, 3, 1);
  }
  return {};
}

/// `c` with `threads` GPE threads and scratchpads small enough that
/// allocations fail: the AGG holds three 8-word entries, the DNQ four, and
/// each queue of a two-queue phase one MPNN entry (11 words on queue 0, 16
/// on queue 1).
AcceleratorConfig stalling(AcceleratorConfig c, std::uint32_t threads) {
  c.tile_params.gpe_threads = threads;
  c.tile_params.agg_data_bytes = 96;
  c.tile_params.dnq_data_bytes = 128;
  c.tile_params.dnq_queue0_sixteenths = 6;
  return c;
}

/// `base` at a 1.2 GHz core clock with FR-FCFS memory, `threads` GPE
/// threads and stalling scratchpads.
AcceleratorConfig digest_config(AcceleratorConfig base,
                                std::uint32_t threads) {
  AcceleratorConfig c = base.with_core_clock(1.2);
  c.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  return stalling(c, threads);
}

struct DigestCase {
  Program program;
  bool gpu;
  std::uint32_t threads;
  std::uint64_t expected;
};

std::string case_name(const DigestCase& dc) {
  return std::string(kProgramNames[static_cast<int>(dc.program)]) +
         (dc.gpu ? "GpuIsoBw" : "CpuIsoBw") + "_Threads" +
         std::to_string(dc.threads);
}

// gtest prints a parameter into each test's listed name; its default
// printer would dump the padding bytes too, which differ from run to run.
void PrintTo(const DigestCase& dc, std::ostream* os) { *os << case_name(dc); }

/// Simulate one case to completion, tracing and sampling into the hash.
std::uint64_t run_digest(const DigestCase& dc) {
  const graph::Dataset ds = digest_dataset(dc.program);
  const CompiledProgram prog =
      ProgramCompiler{}.compile(digest_model(dc.program), ds);
  AcceleratorSim sim(digest_config(dc.gpu ? AcceleratorConfig::gpu_iso_bw()
                                          : AcceleratorConfig::cpu_iso_bw(),
                                   dc.threads));
  Fnv1a h;
  HashSink sink(h);
  std::ostringstream samples;
  TraceOptions topts;
  topts.sink = &sink;
  topts.sample_every = 500;
  topts.sample_out = &samples;
  sim.set_trace(topts);
  const RunStats rs = sim.run(prog, ds);
  // One thread waits out two memory round trips per task before it
  // allocates, so only the GAT and MPNN scratchpads fill up under it.
  if (dc.threads > 1) {
    EXPECT_GT(rs.alloc_stalls, 0U) << "the scratchpads no longer force stalls";
  }
  hash_stats(h, rs);
  h.add(samples.str());
  return h.value();
}

class TileDigest : public ::testing::TestWithParam<DigestCase> {};

// Any change to a vertex program, an allocation, a send or a load moves at
// least one of these pinned digests.
TEST_P(TileDigest, EventsAndStatsArePinned) {
  const DigestCase& dc = GetParam();
  const std::uint64_t got = run_digest(dc);
  EXPECT_EQ(got, dc.expected) << std::hex << "digest 0x" << got;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, TileDigest,
    ::testing::Values(
        DigestCase{Program::kGcn, false, 1, 0x6fa8a4a1489f7d7dULL},
        DigestCase{Program::kGcn, false, 16, 0x7f27ea434fe0fad4ULL},
        DigestCase{Program::kGcn, true, 1, 0xd808b4bebf4ed016ULL},
        DigestCase{Program::kGcn, true, 16, 0x5206b763a8d46ec8ULL},
        DigestCase{Program::kGat, false, 1, 0xd7aab2f7c64428ecULL},
        DigestCase{Program::kGat, false, 16, 0x7ed1f7fe18d7108aULL},
        DigestCase{Program::kGat, true, 1, 0x2f1d58c521746dcaULL},
        DigestCase{Program::kGat, true, 16, 0xbfe9498ad6c336dfULL},
        DigestCase{Program::kMpnn, false, 1, 0xb8350853860fb5e9ULL},
        DigestCase{Program::kMpnn, false, 16, 0x664c7d5a7e95e031ULL},
        DigestCase{Program::kMpnn, true, 1, 0x21d2d9ae7d1769e3ULL},
        DigestCase{Program::kMpnn, true, 16, 0x9ad43a14f19c3144ULL},
        DigestCase{Program::kPgnn, false, 1, 0x31ab9227d36869d3ULL},
        DigestCase{Program::kPgnn, false, 16, 0x98545102c0bd88a9ULL},
        DigestCase{Program::kPgnn, true, 1, 0x5588ccb40edc6bc0ULL},
        DigestCase{Program::kPgnn, true, 16, 0x8dc8efb1a1d69f41ULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return case_name(info.param);
    });

struct WatchdogCase {
  Program program;
  std::uint64_t expected;
};

void PrintTo(const WatchdogCase& wc, std::ostream* os) {
  *os << kProgramNames[static_cast<int>(wc.program)];
}

class TileWatchdogDigest : public ::testing::TestWithParam<WatchdogCase> {};

// A 20-cycle watchdog trips mid-run on every program; its report lists
// every live thread's stage, loop counter and pending loads, and every
// unit's occupancy.
TEST_P(TileWatchdogDigest, ReportIsPinned) {
  const WatchdogCase& wc = GetParam();
  const graph::Dataset ds = digest_dataset(wc.program);
  const CompiledProgram prog =
      ProgramCompiler{}.compile(digest_model(wc.program), ds);
  AcceleratorSim sim(digest_config(AcceleratorConfig::gpu_iso_bw(), 16));
  sim.set_watchdog_cycles(20);
  std::string report;
  try {
    (void)sim.run(prog, ds);
  } catch (const std::runtime_error& e) {
    report = e.what();
  }
  ASSERT_NE(report.find("deadlock diagnostics"), std::string::npos)
      << "the watchdog did not trip";
  Fnv1a h;
  h.add(report);
  EXPECT_EQ(h.value(), wc.expected) << std::hex << "digest 0x" << h.value()
                                    << "\n" << report;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, TileWatchdogDigest,
    ::testing::Values(WatchdogCase{Program::kGcn, 0x43a5087019a087e5ULL},
                      WatchdogCase{Program::kGat, 0xba9eb7a21629cf63ULL},
                      WatchdogCase{Program::kMpnn, 0x334bfe943fd50822ULL},
                      WatchdogCase{Program::kPgnn, 0x559828610d9bbdbfULL}),
    [](const ::testing::TestParamInfo<WatchdogCase>& info) {
      return std::string(kProgramNames[static_cast<int>(info.param.program)]);
    });

/// Grabs the simulator's deadlock report at the first allocation stall
/// at or after `from`, then stops the run.
class StallReportSink final : public trace::TraceSink {
 public:
  StallReportSink(const AcceleratorSim& sim, double from)
      : sim_(sim), from_(from) {}
  void complete(trace::Category, std::uint32_t, const char*, double, double,
                std::uint64_t, std::uint64_t) override {}
  void instant(trace::Category, std::uint32_t, const char* name, double at,
               std::uint64_t, std::uint64_t) override {
    if (at < from_ || std::string_view(name) != "alloc_stall") return;
    report = sim_.deadlock_report("now");
    throw std::runtime_error("stop");
  }
  void counter(trace::Category, std::uint32_t, const char*, double,
               double) override {}

  std::string report;

 private:
  const AcceleratorSim& sim_;
  double from_;
};

/// Each value printed after `key` in `report`.
std::vector<std::string> values_after(const std::string& report,
                                      const std::string& key) {
  std::vector<std::string> values;
  for (std::size_t at = report.find(key); at != std::string::npos;
       at = report.find(key, at + 1)) {
    const std::size_t begin = at + key.size();
    values.push_back(
        report.substr(begin, report.find_first_of(" \n", begin) - begin));
  }
  return values;
}

// A report past cycle 10^6 prints each stalled thread's retry cycle in
// full, not rounded to six significant digits ("2.87131e+06"), and the
// GPE, AGG and DNA times too, which a 10 MHz core keeps in whole NoC
// cycles ("gpe_time=1.00032e+06" before they were integers).
TEST(TileWatchdogDigest, StallCyclesPrintExactlyPastOneMillion) {
  const graph::Dataset ds = digest_dataset(Program::kGcn);
  const CompiledProgram prog =
      ProgramCompiler{}.compile(digest_model(Program::kGcn), ds);
  // A 10 MHz core stretches the run past a million NoC cycles.
  AcceleratorSim sim(
      digest_config(AcceleratorConfig::cpu_iso_bw(), 16).with_core_clock(0.01));
  StallReportSink sink(sim, 1e6);
  TraceOptions topts;
  topts.sink = &sink;
  sim.set_trace(topts);
  EXPECT_THROW((void)sim.run(prog, ds), std::runtime_error);
  std::size_t stalled = 0;  // threads retrying past cycle 10^6
  for (const std::string& value :
       values_after(sink.report, "stalled_until=")) {
    EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos)
        << value;
    if (std::stoull(value) >= 1000000U) ++stalled;
  }
  EXPECT_GT(stalled, 0U) << sink.report;
  for (const char* key : {"gpe_time=", "alu_free_at=", "array_free_at="}) {
    const std::vector<std::string> values = values_after(sink.report, key);
    EXPECT_FALSE(values.empty()) << key;
    for (const std::string& value : values) {
      EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos)
          << key << value;
    }
  }
  EXPECT_GE(std::stoull(values_after(sink.report, "gpe_time=").front()),
            1000000U);
}

/// A small random dataset for `p`, drawn from `seed`: 24-48 citation
/// vertices for GCN and GAT, 3-6 molecules for MPNN, a 12-20 vertex
/// community graph for PGNN.
graph::Dataset sweep_dataset(Program p, std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  const std::uint32_t v_feat = p == Program::kMpnn ? 5 : 8;
  ds.spec = {"sweep", 0, 0, 0, v_feat, p == Program::kMpnn ? 3U : 0U, 3};
  const auto add = [&ds](graph::Graph g) {
    ds.spec.num_graphs += 1;
    ds.spec.total_nodes += g.num_nodes();
    ds.spec.total_edges += g.num_edges();
    ds.undirected.push_back(g.symmetrized());
    ds.graphs.push_back(std::move(g));
  };
  switch (p) {
    case Program::kGcn:
    case Program::kGat: {
      const auto n = static_cast<NodeId>(rng.next_in(24, 48));
      add(graph::generate_citation_graph(rng, n, n * rng.next_in(2, 4)));
      break;
    }
    case Program::kMpnn:
      for (std::uint64_t i = rng.next_in(3, 6); i > 0; --i) {
        const auto n = static_cast<NodeId>(rng.next_in(6, 10));
        add(graph::generate_molecule_graph(rng, n, n + rng.next_in(0, 2)));
      }
      ds.spec.output_features = 4;
      break;
    case Program::kPgnn: {
      const auto n = static_cast<NodeId>(rng.next_in(12, 20));
      add(graph::generate_community_graph(rng, n, n + n / 2, 4));
      break;
    }
  }
  return ds;
}

/// How a run is looped: ticking everything every cycle, or jumping over
/// idle cycles with a trace sink attached or with none.
enum class Loop : std::uint8_t { kReference, kTraced, kUntraced };

struct LoopRun {
  std::string json;               // the stats JSON
  std::uint64_t trace = 0;        // the trace hash, if traced
  std::size_t most_spinning = 0;  // AcceleratorSim::most_spinning()
};

LoopRun run_loop(const CompiledProgram& prog, const graph::Dataset& ds,
                 const AcceleratorConfig& cfg, Loop loop,
                 graph::PartitionPolicy partition) {
  AcceleratorSim sim(cfg, partition);
  sim.set_reference_loop(loop == Loop::kReference);
  Fnv1a h;
  HashSink sink(h);
  if (loop != Loop::kUntraced) {
    TraceOptions topts;
    topts.sink = &sink;
    sim.set_trace(topts);
  }
  sim::RunResult r;
  r.stats = sim.run(prog, ds);
  std::ostringstream json;
  sim::write_batch_json(json, {r});
  EXPECT_LE(r.stats.static_model->bound_cycles,
            static_cast<double>(r.stats.cycles))
      << "the static bound exceeds the measured cycle count";
  return {json.str(), h.value(), sim.most_spinning()};
}

/// The most GPEs that the traced and the untraced jumping loop each
/// advanced at one jump.
struct MostSpinning {
  std::size_t traced = 0;
  std::size_t untraced = 0;
};

/// Runs `cfg` on all three loops and requires the reference loop's stats
/// JSON from both jumping ones and its trace from the traced one.
MostSpinning expect_loops_agree(
    const CompiledProgram& prog, const graph::Dataset& ds,
    const AcceleratorConfig& cfg,
    graph::PartitionPolicy partition = graph::PartitionPolicy::kRoundRobin) {
  const LoopRun reference =
      run_loop(prog, ds, cfg, Loop::kReference, partition);
  const LoopRun traced = run_loop(prog, ds, cfg, Loop::kTraced, partition);
  const LoopRun untraced =
      run_loop(prog, ds, cfg, Loop::kUntraced, partition);
  EXPECT_EQ(traced.json, reference.json);
  EXPECT_EQ(traced.trace, reference.trace) << "the traces differ";
  EXPECT_EQ(untraced.json, reference.json) << "untraced";
  return {traced.most_spinning, untraced.most_spinning};
}

/// A program, the dataset it runs on and the configuration to run it on.
struct SweepCase {
  graph::Dataset ds;
  CompiledProgram prog;
  AcceleratorConfig cfg;
};

/// `p`'s digest model compiled for its sweep dataset of `seed`, on `base`
/// with `threads` GPE threads, stalling scratchpads and `frfcfs` memory.
SweepCase sweep_case(Program p, std::uint64_t seed, AcceleratorConfig base,
                     std::uint32_t threads, bool frfcfs) {
  SweepCase sc{sweep_dataset(p, seed), {}, std::move(base)};
  sc.prog = ProgramCompiler{}.compile(digest_model(p), sc.ds);
  sc.cfg.mem_params.scheduler =
      frfcfs ? mem::MemScheduler::kFrFcfs : mem::MemScheduler::kInOrder;
  sc.cfg = stalling(sc.cfg, threads);
  return sc;
}

class LoopReference : public ::testing::TestWithParam<Program> {};

// Every program on 16 seeded random graphs, one per combination of
// config, thread count, memory scheduler and core clock, with scratchpads
// small enough that allocations fail: the jumping loop must give the
// reference loop's stats JSON and trace, byte for byte, and its stats
// JSON without a trace sink too.
TEST_P(LoopReference, JumpingLoopMatchesTickingEveryCycle) {
  const Program p = GetParam();
  for (std::uint32_t combo = 0; combo < 16; ++combo) {
    const bool gpu = (combo & 1U) != 0;
    const std::uint32_t threads = (combo & 2U) != 0 ? 16 : 1;
    const bool frfcfs = (combo & 4U) != 0;
    const bool slow_core = (combo & 8U) != 0;
    const std::uint64_t seed = 100 * static_cast<std::uint64_t>(p) + combo;
    SCOPED_TRACE("combo " + std::to_string(combo) + ", seed " +
                 std::to_string(seed));
    AcceleratorConfig cfg = gpu ? AcceleratorConfig::gpu_iso_bw()
                                : AcceleratorConfig::cpu_iso_bw();
    if (slow_core) cfg = cfg.with_core_clock(1.2);
    const SweepCase sc = sweep_case(p, seed, cfg, threads, frfcfs);
    expect_loops_agree(sc.prog, sc.ds, sc.cfg);
  }
}

// The same at core clocks whose ratio to the NoC's 2.4 GHz is not a whole
// number: 1.8 GHz (4/3) and 1.0 GHz (12/5), on 8 more seeded graphs.
TEST_P(LoopReference, InexactCoreClocksMatch) {
  const Program p = GetParam();
  for (std::uint32_t combo = 0; combo < 8; ++combo) {
    const bool gpu = (combo & 1U) != 0;
    const std::uint32_t threads = (combo & 2U) != 0 ? 16 : 1;
    const double ghz = (combo & 4U) != 0 ? 1.0 : 1.8;
    const std::uint64_t seed =
        100 * static_cast<std::uint64_t>(p) + 16 + combo;
    SCOPED_TRACE("combo " + std::to_string(combo) + ", seed " +
                 std::to_string(seed));
    const AcceleratorConfig cfg = (gpu ? AcceleratorConfig::gpu_iso_bw()
                                       : AcceleratorConfig::cpu_iso_bw())
                                      .with_core_clock(ghz);
    const SweepCase sc = sweep_case(p, seed, cfg, threads, combo % 3 == 0);
    expect_loops_agree(sc.prog, sc.ds, sc.cfg);
  }
}

// gpu-iso-flops, whose 16 tiles and 8 memory controllers make 56 NoC
// endpoints, and gpu-iso-bw under each partition policy that needs no
// profile, on 12 more seeded graphs.
TEST_P(LoopReference, FlopsConfigAndPartitionsMatch) {
  const Program p = GetParam();
  for (std::uint32_t combo = 0; combo < 12; ++combo) {
    const bool flops = (combo & 1U) != 0;
    const std::uint32_t threads = (combo & 2U) != 0 ? 16 : 1;
    const auto partition = static_cast<graph::PartitionPolicy>(combo >> 2);
    const std::uint64_t seed =
        100 * static_cast<std::uint64_t>(p) + 24 + combo;
    SCOPED_TRACE("combo " + std::to_string(combo) + ", seed " +
                 std::to_string(seed));
    const SweepCase sc = sweep_case(p, seed,
                                    flops ? AcceleratorConfig::gpu_iso_flops()
                                          : AcceleratorConfig::gpu_iso_bw(),
                                    threads, combo % 3 == 0);
    expect_loops_agree(sc.prog, sc.ds, sc.cfg, partition);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, LoopReference,
    ::testing::Values(Program::kGcn, Program::kGat, Program::kMpnn,
                      Program::kPgnn),
    [](const ::testing::TestParamInfo<Program>& info) {
      return std::string(kProgramNames[static_cast<int>(info.param)]);
    });

// MPNN on a graph whose phases leave all 8 gpu-iso-bw GPEs spinning at
// one jump, with 16 and 64 threads, at an exact and an inexact clock: the
// spinning GPEs advance together, interleaved cycle by cycle when traced,
// and must still match the reference loop.
TEST(LoopReferenceMesh, SeveralGpesSpinAtOnce) {
  for (const std::uint32_t threads : {16U, 64U}) {
    for (const double ghz : {2.4, 1.8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, " +
                   std::to_string(ghz) + " GHz");
      const SweepCase sc = sweep_case(
          Program::kMpnn, 1001,
          AcceleratorConfig::gpu_iso_bw().with_core_clock(ghz), threads,
          false);
      const MostSpinning most = expect_loops_agree(sc.prog, sc.ds, sc.cfg);
      EXPECT_EQ(most.untraced, 8U);
      EXPECT_EQ(most.traced, 8U);
    }
  }
}

/// What the sampler and the watchdog saw of a run: its sampler CSV, and
/// its watchdog report, empty if the watchdog did not trip.
struct Observed {
  std::string samples;
  std::string report;
};

/// Runs `sc` untraced, sampling every `sample_every` cycles, with a
/// `watchdog`-cycle watchdog, on the reference loop or the jumping one.
Observed observe(const SweepCase& sc, bool reference, Cycle sample_every,
                 Cycle watchdog) {
  AcceleratorSim sim(sc.cfg);
  sim.set_reference_loop(reference);
  sim.set_watchdog_cycles(watchdog);
  std::ostringstream samples;
  TraceOptions topts;
  topts.sample_every = sample_every;
  topts.sample_out = &samples;
  sim.set_trace(topts);
  Observed seen;
  try {
    (void)sim.run(sc.prog, sc.ds);
  } catch (const std::runtime_error& e) {
    seen.report = e.what();
  }
  seen.samples = samples.str();
  return seen;
}

// The same case, untraced, where spinning GPEs lag behind the clock until
// something reads them: every sampler row, 97 cycles apart, and the report
// of a watchdog that trips while GPEs spin must read them as the reference
// loop, which ticks every retry, does.
TEST(LoopReferenceMesh, SamplesAndWatchdogReadCaughtUpGpes) {
  const auto mpnn_case = [](std::uint32_t threads, double ghz) {
    return sweep_case(Program::kMpnn, 1001,
                      AcceleratorConfig::gpu_iso_bw().with_core_clock(ghz),
                      threads, false);
  };
  for (const std::uint32_t threads : {16U, 64U}) {
    for (const double ghz : {2.4, 1.8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, " +
                   std::to_string(ghz) + " GHz");
      const SweepCase sc = mpnn_case(threads, ghz);
      const Observed reference = observe(sc, true, 97, 2'000'000);
      EXPECT_TRUE(reference.report.empty()) << reference.report;
      EXPECT_GT(std::count(reference.samples.begin(),
                           reference.samples.end(), '\n'),
                10);
      EXPECT_EQ(observe(sc, false, 97, 2'000'000).samples, reference.samples);
    }
    // A slow core stretches the DNA's work, so for hundreds of cycles no
    // work retires and no packet lands while the GPEs spin, and a watchdog
    // that short trips there (at cycles 10,430 and 17,538).
    for (const auto& [ghz, watchdog] :
         {std::pair{0.2, Cycle{300}}, std::pair{0.1, Cycle{500}}}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, " +
                   std::to_string(ghz) + " GHz, watchdog " +
                   std::to_string(watchdog));
      const SweepCase sc = mpnn_case(threads, ghz);
      const Observed reference = observe(sc, true, 0, watchdog);
      EXPECT_NE(reference.report.find("stalled_until="), std::string::npos)
          << "no GPE spins at the trip\n" << reference.report;
      EXPECT_EQ(observe(sc, false, 0, watchdog).report, reference.report);
    }
  }
}

}  // namespace
}  // namespace gnna::accel
