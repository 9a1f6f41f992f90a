// trace::Attribution — unit tests of the sink's charging rules plus the
// end-to-end conservation invariant: per-tile busy sums the same kGpe
// completes the profiler folds into its per-phase busy totals, so the two
// must agree exactly, and attaching the sink must not move a single cycle.
#include "trace/attribution.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/analysis.hpp"
#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"
#include "sim/session.hpp"
#include "trace/profiler.hpp"

namespace gnna {
namespace {

using trace::Attribution;
using trace::AttributionReport;
using trace::Category;

/// Two tiles, three endpoints each, one memory endpoint at the end.
Attribution make_sink(std::size_t top_k = 8) {
  return Attribution(
      2, {0, 0, 0, 1, 1, 1, Attribution::kNoTile}, top_k);
}

TEST(Attribution, GpeSpansChargeTileAndTaskChargesVertex) {
  Attribution a = make_sink();
  a.complete(Category::kGpe, 0, "task", 0.0, 10.0, 7, 0);
  a.complete(Category::kGpe, 0, "task/gather", 2.0, 4.0, 7, 0);
  a.complete(Category::kGpe, 1, "task", 0.0, 6.0, 9, 0);
  const AttributionReport r = a.report();
  ASSERT_EQ(r.tiles.size(), 2U);
  // Tile busy double-counts nested sub-spans by design (same event set as
  // the profiler's busy[gpe]); per-vertex busy counts "task" spans only.
  EXPECT_DOUBLE_EQ(r.tiles[0].busy, 14.0);
  EXPECT_DOUBLE_EQ(r.tiles[1].busy, 6.0);
  EXPECT_EQ(r.tiles[0].tasks, 1U);
  EXPECT_DOUBLE_EQ(r.total_busy, 20.0);
  ASSERT_EQ(r.vertices.size(), 2U);
  EXPECT_EQ(r.vertices[0].vertex, 7U);  // sorted by busy desc
  EXPECT_DOUBLE_EQ(r.vertices[0].busy, 10.0);
  EXPECT_FALSE(r.vertices[0].approx);
  EXPECT_EQ(r.vertices[1].vertex, 9U);
}

TEST(Attribution, NonGpeCompletesAreIgnored) {
  Attribution a = make_sink();
  a.complete(Category::kMem, 0, "read", 0.0, 50.0, 3, 0);
  const AttributionReport r = a.report();
  EXPECT_DOUBLE_EQ(r.total_busy, 0.0);
  EXPECT_TRUE(r.vertices.empty());
}

TEST(Attribution, PacketsChargeSourceTileThenDestination) {
  Attribution a = make_sink();
  // Tile 0 endpoint -> memory endpoint: charged at the source tile.
  a.packet(0, 6, 4, 2, 3, 128);
  // Memory endpoint -> tile 1 endpoint: charged at the destination tile.
  a.packet(6, 3, 4, 5, 2, 320);
  const AttributionReport r = a.report();
  EXPECT_EQ(r.tiles[0].flits, 2U);
  EXPECT_EQ(r.tiles[0].flit_hops, 6U);
  EXPECT_EQ(r.tiles[0].bytes, 128U);
  EXPECT_EQ(r.tiles[1].flits, 5U);
  EXPECT_EQ(r.tiles[1].flit_hops, 10U);
  ASSERT_EQ(r.vertices.size(), 1U);
  EXPECT_EQ(r.vertices[0].vertex, 4U);
  EXPECT_EQ(r.vertices[0].flits, 7U);
  EXPECT_EQ(r.vertices[0].bytes, 448U);
}

TEST(Attribution, UnownedPacketsCountedSeparately) {
  Attribution a = make_sink();
  a.packet(0, 6, trace::kUnowned, 3, 1, 192);
  const AttributionReport r = a.report();
  EXPECT_EQ(r.unattributed_flits, 3U);
  EXPECT_TRUE(r.vertices.empty());
  // The tile still saw the traffic even though no vertex owns it.
  EXPECT_EQ(r.tiles[0].flits, 3U);
}

TEST(Attribution, ChargeFeedsAggBusy) {
  Attribution a = make_sink();
  a.charge(Category::kAgg, 1, 5, 12.0);
  a.charge(Category::kAgg, 1, trace::kUnowned, 3.0);
  const AttributionReport r = a.report();
  EXPECT_DOUBLE_EQ(r.tiles[1].agg_busy, 15.0);
  ASSERT_EQ(r.vertices.size(), 1U);
  EXPECT_DOUBLE_EQ(r.vertices[0].agg_busy, 12.0);
}

TEST(Attribution, SpanComesFromPhaseMarkers) {
  Attribution a = make_sink();
  a.phase_begin("gc1", 10.0);
  a.phase_end("gc1", 110.0);
  a.phase_begin("gc2", 110.0);
  a.phase_end("gc2", 160.0);
  a.complete(Category::kGpe, 0, "task", 20.0, 30.0, 1, 0);
  const AttributionReport r = a.report();
  EXPECT_DOUBLE_EQ(r.span, 150.0);
  EXPECT_DOUBLE_EQ(r.tiles[0].idle, 120.0);  // span - busy
  EXPECT_DOUBLE_EQ(r.tiles[1].idle, 150.0);
}

TEST(Attribution, HotspotTableStaysBoundedAndKeepsHeavyHitters) {
  Attribution a = make_sink(/*top_k=*/4);
  // 64 light vertices, then one heavy one that must displace a light one.
  for (std::uint32_t v = 0; v < 64; ++v) {
    a.complete(Category::kGpe, 0, "task", 0.0, 1.0, v, 0);
  }
  for (int i = 0; i < 16; ++i) {
    a.complete(Category::kGpe, 1, "task", 0.0, 10.0, 1000, 0);
  }
  const AttributionReport r = a.report();
  EXPECT_LE(r.vertices.size(), 4U);
  ASSERT_FALSE(r.vertices.empty());
  EXPECT_EQ(r.vertices[0].vertex, 1000U);
  // Admitted after evictions: its counters are sketch-bounded estimates.
  EXPECT_TRUE(r.vertices[0].approx);
  EXPECT_GE(r.vertices[0].busy, 160.0);
}

TEST(AttributionReport, ImbalanceMetrics) {
  AttributionReport r;
  r.tiles.resize(4);
  r.tiles[0].busy = 40.0;
  r.tiles[1].busy = 20.0;
  r.tiles[2].busy = 20.0;
  r.tiles[3].busy = 20.0;
  EXPECT_DOUBLE_EQ(r.busy_max_mean(), 1.6);
  // Uniform flits: perfectly equal distribution.
  for (auto& t : r.tiles) t.flits = 10;
  EXPECT_DOUBLE_EQ(r.flit_gini(), 0.0);
  // One tile carries everything: Gini -> (n-1)/n... for n=4 that's 0.75.
  r.tiles[0].flits = 40;
  for (std::size_t i = 1; i < 4; ++i) r.tiles[i].flits = 0;
  EXPECT_DOUBLE_EQ(r.flit_gini(), 0.75);
}

/// Small skewed workload for the end-to-end checks.
sim::Session::Resolved compile_small(sim::Session& session) {
  Rng rng(29);
  auto ds = std::make_shared<graph::Dataset>();
  ds->spec = {"attr_test", 1, 256, 1024, 16, 0, 4};
  ds->graphs.push_back(graph::generate_citation_graph(rng, 256, 1024, 1.2));
  ds->undirected.push_back(ds->graphs[0].symmetrized());
  std::vector<float> nf(256 * 16);
  for (auto& x : nf) x = rng.next_float(0.0F, 1.0F);
  ds->node_features.push_back(std::move(nf));
  ds->edge_features.emplace_back();
  return session.compile(gnn::make_gcn(16, 4), std::move(ds));
}

TEST(AttributionSim, TileBusyConservesProfilerGpeBusy) {
  sim::Session session;
  const sim::Session::Resolved r = compile_small(session);
  accel::AcceleratorSim sim(accel::AcceleratorConfig::gpu_iso_bw(),
                            graph::PartitionPolicy::kRoundRobin);
  accel::TraceOptions opts;
  opts.profile = true;
  opts.attribution = true;
  opts.attribution_top_k = 256;
  sim.set_trace(opts);
  const accel::RunStats rs = sim.run(*r.program, *r.dataset);

  ASSERT_TRUE(rs.profile);
  ASSERT_TRUE(rs.attribution);
  const double profiler_gpe = rs.profile->busy_total(trace::Category::kGpe);
  double tile_busy = 0.0;
  for (const auto& t : rs.attribution->tiles) tile_busy += t.busy;
  // Same event stream, same double-counting of nested spans — exact match.
  EXPECT_DOUBLE_EQ(tile_busy, profiler_gpe);
  EXPECT_DOUBLE_EQ(rs.attribution->total_busy, profiler_gpe);
  // Every vertex fits in the table: nothing is approximate, and per-vertex
  // task counts add up to the per-tile ones.
  std::uint64_t vertex_tasks = 0;
  for (const auto& v : rs.attribution->vertices) {
    EXPECT_FALSE(v.approx);
    vertex_tasks += v.tasks;
  }
  std::uint64_t tile_tasks = 0;
  for (const auto& t : rs.attribution->tiles) tile_tasks += t.tasks;
  EXPECT_EQ(vertex_tasks, tile_tasks);
}

TEST(AttributionSim, SinkIsPureObservation) {
  sim::Session session;
  const sim::Session::Resolved r = compile_small(session);
  accel::AcceleratorSim plain(accel::AcceleratorConfig::gpu_iso_bw(),
                              graph::PartitionPolicy::kRoundRobin);
  const accel::RunStats base = plain.run(*r.program, *r.dataset);

  accel::AcceleratorSim traced(accel::AcceleratorConfig::gpu_iso_bw(),
                               graph::PartitionPolicy::kRoundRobin);
  accel::TraceOptions opts;
  opts.attribution = true;
  traced.set_trace(opts);
  const accel::RunStats attr = traced.run(*r.program, *r.dataset);

  EXPECT_EQ(base.cycles, attr.cycles);
  EXPECT_FALSE(base.attribution);
  ASSERT_TRUE(attr.attribution);
}

TEST(AttributionSim, ProfileLoadsMoveWork) {
  sim::Session session;
  const sim::Session::Resolved r = compile_small(session);
  accel::AcceleratorSim sim(accel::AcceleratorConfig::gpu_iso_bw(),
                            graph::PartitionPolicy::kProfileGuided);
  accel::TraceOptions opts;
  opts.attribution = true;
  sim.set_trace(opts);
  // Vertex 0 outweighs the other 255 together: LPT gives it tile 0 alone
  // and packs everything else onto the remaining tiles.
  std::vector<double> loads(256, 1.0);
  loads[0] = 1000.0;
  sim.set_profile_loads(loads);
  const accel::RunStats rs = sim.run(*r.program, *r.dataset);
  ASSERT_TRUE(rs.attribution);
  const std::size_t phases = r.program->phases.size();
  EXPECT_EQ(rs.attribution->tiles[0].tasks, phases);
  std::uint64_t others = 0;
  for (std::size_t t = 1; t < rs.attribution->tiles.size(); ++t) {
    others += rs.attribution->tiles[t].tasks;
  }
  EXPECT_EQ(others, 255U * phases);
}

class PartitionedRun
    : public ::testing::TestWithParam<graph::PartitionPolicy> {};

TEST_P(PartitionedRun, TileTasksFollowMakePartition) {
  // The simulator runs exactly the split graph::make_partition computes:
  // every GAT/Cora phase is per-vertex, so each tile retires its bucket
  // once per phase.
  sim::Session session;
  sim::RunRequest req;
  req.benchmark = gnn::Benchmark::kGatCora;
  req.config = accel::AcceleratorConfig::gpu_iso_bw();
  req.partition = GetParam();
  req.trace.attribution = true;
  const sim::Session::Resolved r = session.resolve(req);
  const accel::RunStats rs = session.run(req);
  ASSERT_TRUE(rs.attribution);
  ASSERT_TRUE(rs.static_model);

  const auto buckets =
      graph::make_partition(r.dataset->undirected[0],
                            static_cast<TileId>(req.config.num_tiles()),
                            GetParam())
          .by_tile();
  const std::size_t phases = r.program->phases.size();
  ASSERT_EQ(rs.attribution->tiles.size(), buckets.size());
  for (std::size_t t = 0; t < buckets.size(); ++t) {
    EXPECT_EQ(rs.attribution->tiles[t].tasks, buckets[t].size() * phases)
        << "tile " << t;
  }
  EXPECT_LE(rs.static_model->bound_cycles, static_cast<double>(rs.cycles));
}

INSTANTIATE_TEST_SUITE_P(
    GatCoraGpuIsoBw, PartitionedRun,
    ::testing::Values(graph::PartitionPolicy::kRoundRobin,
                      graph::PartitionPolicy::kBlock,
                      graph::PartitionPolicy::kDegreeGreedy),
    [](const auto& info) {
      std::string name(graph::partition_name(info.param));
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace gnna
