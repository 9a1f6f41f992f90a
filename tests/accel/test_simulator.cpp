#include "accel/simulator.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "accel/compiler.hpp"
#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

namespace gnna::accel {
namespace {

graph::Dataset small_dataset(NodeId n = 40, EdgeId e = 100,
                             std::uint32_t vf = 8, std::uint32_t ef = 0,
                             std::uint32_t num_graphs = 1) {
  Rng rng(n + e);
  graph::Dataset ds;
  ds.spec = {"test", num_graphs, static_cast<NodeId>(n * num_graphs),
             static_cast<EdgeId>(e * num_graphs), vf, ef, 3};
  for (std::uint32_t i = 0; i < num_graphs; ++i) {
    ds.graphs.push_back(graph::generate_random_graph(rng, n, e));
    ds.undirected.push_back(ds.graphs.back().symmetrized());
    ds.node_features.emplace_back(std::size_t{n} * vf, 0.5F);
    ds.edge_features.emplace_back(std::size_t{e} * ef, 0.5F);
  }
  return ds;
}

/// A 2-tile configuration small enough for unit tests.
AcceleratorConfig two_tile_config() {
  AcceleratorConfig c;
  c.name = "test-2tile";
  c.mesh_width = 3;
  c.mesh_height = 1;
  c.tile_coords = {{0, 0}, {1, 0}};
  c.mem_coords = {{2, 0}};
  return c;
}

RunStats run_model(const gnn::ModelSpec& model, const graph::Dataset& ds,
                   const AcceleratorConfig& cfg) {
  const auto prog = ProgramCompiler{}.compile(model, ds);
  AcceleratorSim sim(cfg);
  return sim.run(prog, ds);
}

TEST(Simulator, GcnCompletesAllVertices) {
  const auto ds = small_dataset();
  const RunStats rs =
      run_model(gnn::make_gcn(8, 3, 4), ds, AcceleratorConfig::cpu_iso_bw());
  // Two phases, every vertex retired in each.
  EXPECT_EQ(rs.tasks_completed, 80U);
  EXPECT_GT(rs.cycles, 0U);
  EXPECT_GT(rs.mem_bytes_served, 0U);
  ASSERT_EQ(rs.phases.size(), 2U);
  EXPECT_EQ(rs.phases[0].tasks, 40U);
}

TEST(Simulator, GatCompletes) {
  const auto ds = small_dataset();
  const RunStats rs = run_model(gnn::make_gat(8, 3, 2, 4), ds,
                                AcceleratorConfig::cpu_iso_bw());
  EXPECT_EQ(rs.tasks_completed, 4U * 40U);  // 4 phases x 40 vertices
}

TEST(Simulator, MpnnCompletesAndSwitchesQueues) {
  const auto ds = small_dataset(12, 14, 5, 3, /*num_graphs=*/4);
  const RunStats rs = run_model(gnn::make_mpnn(5, 3, 4, 8, 2), ds,
                                AcceleratorConfig::cpu_iso_bw());
  // embed(48) + 2 x message(48) + readout(4 graphs).
  EXPECT_EQ(rs.tasks_completed, 48U + 96U + 4U);
  // The GRU model lives on virtual queue 1: switches must have happened.
  EXPECT_GT(rs.dnq_queue_switches, 0U);

  // Exact pins of every counter and utilization. This run exercises the
  // DNQ lazy queue switch, the subtlest wake-up of the next-event cycle
  // loop (DESIGN.md §17); the values are those of the per-cycle loop it
  // replaced, so any cycle the jump moves shows up here.
  EXPECT_EQ(rs.cycles, 17806U);
  EXPECT_EQ(rs.seconds, 7.4191666666666666e-06);
  EXPECT_EQ(rs.millis, 0.0074191666666666668);
  EXPECT_EQ(rs.mem_bytes_requested, 93960U);
  EXPECT_EQ(rs.mem_bytes_served, 140032U);
  EXPECT_EQ(rs.mean_bandwidth_gbps, 18.874356958328651);
  EXPECT_EQ(rs.bandwidth_utilization, 0.27756407291659779);
  EXPECT_EQ(rs.mem_row_hits, 0U);
  EXPECT_EQ(rs.mem_row_misses, 0U);
  EXPECT_EQ(rs.mem_row_hit_rate, 0.0);
  EXPECT_EQ(rs.mem_queue_occupancy, 5.6160629036787419);
  EXPECT_EQ(rs.mem_queue_occupancy_max, 29.0);
  EXPECT_TRUE(rs.mem_banks.empty());
  EXPECT_EQ(rs.dna_utilization, 0.75951926316971807);
  EXPECT_EQ(rs.gpe_utilization, 0.23475233067505336);
  EXPECT_EQ(rs.agg_utilization, 0.013253959339548467);
  EXPECT_EQ(rs.packets_delivered, 2296U);
  EXPECT_EQ(rs.avg_packet_latency, 6.0701219512195195);
  EXPECT_EQ(rs.dnq_queue_switches, 6U);
  EXPECT_EQ(rs.alloc_stalls, 0U);
  EXPECT_EQ(rs.noc_flit_hops, 3011U);
  EXPECT_EQ(rs.noc_flits_delivered, 3419U);
  EXPECT_EQ(rs.agg_words_reduced, 2080U);
  EXPECT_EQ(rs.dna_macs, 1870592U);
  EXPECT_EQ(rs.gpe_actions, 1632U);
  EXPECT_EQ(rs.dnq_words, 4140U);
  const std::vector<std::tuple<std::string, Cycle, std::uint64_t,
                               std::uint64_t>>
      phases = {{"embed", 726, 13184, 48},
                {"mp1", 8446, 62464, 48},
                {"mp2", 8432, 62464, 48},
                {"readout", 202, 1920, 4}};
  ASSERT_EQ(rs.phases.size(), phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& [name, cycles, bytes, tasks] = phases[i];
    EXPECT_EQ(rs.phases[i].name, name);
    EXPECT_EQ(rs.phases[i].cycles, cycles);
    EXPECT_EQ(rs.phases[i].mem_bytes_served, bytes);
    EXPECT_EQ(rs.phases[i].tasks, tasks);
  }
}

TEST(Simulator, PgnnCompletesWalks) {
  const auto ds = small_dataset(30, 60, 1);
  const RunStats rs = run_model(gnn::make_pgnn(1, 3, 4, 2, 1), ds,
                                AcceleratorConfig::cpu_iso_bw());
  // 2 hop phases + 1 projection, 30 vertices each.
  EXPECT_EQ(rs.tasks_completed, 90U);
}

TEST(Simulator, MemoryTrafficCoversFeatureBytes) {
  const auto ds = small_dataset(40, 100, 8);
  const RunStats rs =
      run_model(gnn::make_gcn(8, 3, 4), ds, AcceleratorConfig::cpu_iso_bw());
  // Layer 1 alone gathers >= (edges+selfloops) * 8 words.
  const std::uint64_t sym_edges = ds.undirected[0].num_edges();
  const std::uint64_t min_gather = (sym_edges + 40) * 8 * 4;
  EXPECT_GE(rs.mem_bytes_requested, min_gather);
  // Served >= requested (64B granularity padding).
  EXPECT_GE(rs.mem_bytes_served, rs.mem_bytes_requested);
}

TEST(Simulator, UtilizationsAreFractions) {
  const auto ds = small_dataset();
  const RunStats rs =
      run_model(gnn::make_gcn(8, 3, 4), ds, AcceleratorConfig::cpu_iso_bw());
  for (const double u : {rs.dna_utilization, rs.gpe_utilization,
                         rs.agg_utilization, rs.bandwidth_utilization}) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  EXPECT_GT(rs.gpe_utilization, 0.0);
  EXPECT_GT(rs.dna_utilization, 0.0);
}

TEST(Simulator, HalfClockNeverFaster) {
  const auto ds = small_dataset();
  const gnn::ModelSpec model = gnn::make_gcn(8, 3, 4);
  const RunStats fast =
      run_model(model, ds, AcceleratorConfig::cpu_iso_bw());
  const RunStats slow = run_model(
      model, ds, AcceleratorConfig::cpu_iso_bw().with_core_clock(1.2));
  EXPECT_GE(slow.cycles, fast.cycles);
  EXPECT_DOUBLE_EQ(slow.core_clock_ghz, 1.2);
}

TEST(Simulator, ComputeBoundWorkScalesWithClock) {
  // MPNN is DNA-bound: halving the core clock should stretch runtime
  // significantly (close to 2x).
  const auto ds = small_dataset(12, 14, 5, 3, 4);
  const gnn::ModelSpec model = gnn::make_mpnn(5, 3, 4, 8, 1);
  const RunStats fast = run_model(model, ds, AcceleratorConfig::cpu_iso_bw());
  const RunStats slow = run_model(
      model, ds, AcceleratorConfig::cpu_iso_bw().with_core_clock(1.2));
  EXPECT_GT(static_cast<double>(slow.cycles),
            1.5 * static_cast<double>(fast.cycles));
}

TEST(Simulator, TwoTilesNoSlowerThanOne) {
  const auto ds = small_dataset(60, 200, 16);
  const gnn::ModelSpec model = gnn::make_gat(16, 3, 2, 8);
  const RunStats one =
      run_model(model, ds, AcceleratorConfig::cpu_iso_bw());
  const RunStats two = run_model(model, ds, two_tile_config());
  EXPECT_LE(two.cycles, one.cycles);
}

TEST(Simulator, RunTwiceThrows) {
  const auto ds = small_dataset();
  const auto prog = ProgramCompiler{}.compile(gnn::make_gcn(8, 3, 4), ds);
  AcceleratorSim sim(AcceleratorConfig::cpu_iso_bw());
  (void)sim.run(prog, ds);
  EXPECT_THROW((void)sim.run(prog, ds), std::logic_error);
}

TEST(Simulator, DeterministicCycleCounts) {
  const auto ds = small_dataset();
  const auto prog = ProgramCompiler{}.compile(gnn::make_gcn(8, 3, 4), ds);
  AcceleratorSim a(AcceleratorConfig::cpu_iso_bw());
  AcceleratorSim b(AcceleratorConfig::cpu_iso_bw());
  EXPECT_EQ(a.run(prog, ds).cycles, b.run(prog, ds).cycles);
}

TEST(Simulator, PhaseCyclesSumToTotal) {
  const auto ds = small_dataset();
  const RunStats rs =
      run_model(gnn::make_gcn(8, 3, 4), ds, AcceleratorConfig::cpu_iso_bw());
  Cycle sum = 0;
  for (const auto& ph : rs.phases) sum += ph.cycles;
  EXPECT_EQ(sum, rs.cycles);
}

TEST(Simulator, IsolatedVerticesDoNotHang) {
  // A graph with isolated vertices exercises the zero-degree paths.
  Rng rng(9);
  graph::Dataset ds;
  ds.spec = {"sparse", 1, 50, 10, 4, 0, 2};
  ds.graphs.push_back(graph::generate_random_graph(rng, 50, 10));
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  ds.node_features.emplace_back(200, 0.0F);
  ds.edge_features.emplace_back();
  const RunStats rs = run_model(gnn::make_gcn(4, 2, 2), ds,
                                AcceleratorConfig::cpu_iso_bw());
  EXPECT_EQ(rs.tasks_completed, 100U);
}

TEST(Simulator, WatchdogReportsDiagnostics) {
  // A watchdog tight enough to fire mid-phase must produce a diagnostics
  // dump naming the stalled units and their queue/counter state, both in
  // the exception message and in the requested report file.
  const auto ds = small_dataset();
  const auto prog = ProgramCompiler{}.compile(gnn::make_gcn(8, 3, 4), ds);
  AcceleratorSim sim(AcceleratorConfig::cpu_iso_bw());
  sim.set_watchdog_cycles(3);
  TraceOptions topts;
  topts.deadlock_report_path = ::testing::TempDir() + "watchdog_report.txt";
  sim.set_trace(topts);
  try {
    (void)sim.run(prog, ds);
    FAIL() << "expected the watchdog to fire";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock diagnostics"), std::string::npos);
    EXPECT_NE(msg.find("tile 0"), std::string::npos);
    EXPECT_NE(msg.find("gpe:"), std::string::npos);
    EXPECT_NE(msg.find("dnq:"), std::string::npos);
    EXPECT_NE(msg.find("mem "), std::string::npos);
    EXPECT_NE(msg.find("noc:"), std::string::npos);
    // AGG sections always carry the aggregate remaining-element counter.
    EXPECT_NE(msg.find("remaining_words_total="), std::string::npos);
    std::ifstream report(topts.deadlock_report_path);
    ASSERT_TRUE(report.good());
    std::stringstream contents;
    contents << report.rdbuf();
    EXPECT_NE(contents.str().find("deadlock diagnostics"), std::string::npos);
  }
}

TEST(Simulator, SamplerEmitsCsvRows) {
  const auto ds = small_dataset();
  const auto prog = ProgramCompiler{}.compile(gnn::make_gcn(8, 3, 4), ds);
  AcceleratorSim sim(AcceleratorConfig::cpu_iso_bw());
  std::ostringstream csv;
  TraceOptions topts;
  topts.sample_every = 500;
  topts.sample_out = &csv;
  sim.set_trace(topts);
  const RunStats rs = sim.run(prog, ds);
  ASSERT_GT(rs.cycles, 1000U);  // enough for at least two samples
  std::istringstream in(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("cycle,phase,gpe_busy", 0), 0U);
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_GE(rows, 2U);
}

TEST(Simulator, TracingDoesNotChangeTiming) {
  // The observability layer must be timing-neutral: the same program with
  // a live event sink and sampler attached reports identical cycle counts.
  const auto ds = small_dataset();
  const auto prog = ProgramCompiler{}.compile(gnn::make_gcn(8, 3, 4), ds);
  AcceleratorSim plain(AcceleratorConfig::cpu_iso_bw());
  const Cycle baseline = plain.run(prog, ds).cycles;

  std::ostringstream json;
  std::ostringstream csv;
  trace::ChromeTraceSink sink(json);
  AcceleratorSim traced(AcceleratorConfig::cpu_iso_bw());
  TraceOptions topts;
  topts.sink = &sink;
  topts.sample_every = 1000;
  topts.sample_out = &csv;
  traced.set_trace(topts);
  EXPECT_EQ(traced.run(prog, ds).cycles, baseline);
  EXPECT_GT(sink.events_written(), 0U);
}

TEST(Simulator, TableVIConfigurations) {
  const auto cpu = AcceleratorConfig::cpu_iso_bw();
  EXPECT_EQ(cpu.num_tiles(), 1U);
  EXPECT_EQ(cpu.num_mem_nodes(), 1U);
  EXPECT_EQ(cpu.total_alus(), 198U);
  EXPECT_DOUBLE_EQ(cpu.total_mem_bandwidth_gbps(), 68.0);

  const auto gpu = AcceleratorConfig::gpu_iso_bw();
  EXPECT_EQ(gpu.num_tiles(), 8U);
  EXPECT_EQ(gpu.num_mem_nodes(), 8U);
  EXPECT_EQ(gpu.total_alus(), 1584U);
  EXPECT_DOUBLE_EQ(gpu.total_mem_bandwidth_gbps(), 544.0);

  const auto flops = AcceleratorConfig::gpu_iso_flops();
  EXPECT_EQ(flops.num_tiles(), 16U);
  EXPECT_EQ(flops.num_mem_nodes(), 8U);
  EXPECT_EQ(flops.total_alus(), 3168U);
}

TEST(Simulator, GpuIsoBwRunsMultiTile) {
  const auto ds = small_dataset(64, 200, 8);
  const RunStats rs = run_model(gnn::make_gcn(8, 3, 4), ds,
                                AcceleratorConfig::gpu_iso_bw());
  EXPECT_EQ(rs.tasks_completed, 128U);
}

}  // namespace
}  // namespace gnna::accel
