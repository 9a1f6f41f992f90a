// Tile digest: every vertex program the GPE runs (GCN gather, GAT project
// plus edge phase, MPNN edge-DNA with the GRU on queue 1 plus its per-graph
// readout, PGNN multi-hop walks) simulated end to end on small seeded
// graphs and hashed over every trace callback, every sampler row and every
// RunStats counter. The scratchpads are shrunk until allocations fail, so
// the stall-and-retry path of each allocation site is part of the hash.
// A second set trips the progress watchdog mid-run and hashes its report,
// which prints every live thread's stage and loop counters.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "accel/compiler.hpp"
#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

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

/// `base` at a 1.2 GHz core clock with FR-FCFS memory, `threads` GPE
/// threads and scratchpads small enough that allocations fail: the AGG
/// holds three 8-word entries, the DNQ four, and each queue of a two-queue
/// phase one MPNN entry (11 words on queue 0, 16 on queue 1).
AcceleratorConfig digest_config(AcceleratorConfig base,
                                std::uint32_t threads) {
  AcceleratorConfig c = base.with_core_clock(1.2);
  c.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  c.tile_params.gpe_threads = threads;
  c.tile_params.agg_data_bytes = 96;
  c.tile_params.dnq_data_bytes = 128;
  c.tile_params.dnq_queue0_sixteenths = 6;
  return c;
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

}  // namespace
}  // namespace gnna::accel
