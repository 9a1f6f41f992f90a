// trace::Attribution — unit tests of the sink's charging rules plus the
// end-to-end conservation invariants: per-tile busy sums the same kGpe
// completes the profiler folds into its per-phase busy totals, per-vertex
// busy sums its flame "task" spans, and attaching the sink must not move a
// single cycle.
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
Attribution make_sink(std::size_t num_owners = 16) {
  return Attribution(2, {0, 0, 0, 1, 1, 1, Attribution::kNoTile},
                     num_owners);
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
  a.charge(Category::kAgg, 0, 9, 0.0);  // still reports owner 9
  const AttributionReport r = a.report();
  EXPECT_DOUBLE_EQ(r.tiles[1].agg_busy, 15.0);
  ASSERT_EQ(r.vertices.size(), 2U);
  EXPECT_EQ(r.vertices[0].vertex, 5U);  // equal busy sorts by id
  EXPECT_DOUBLE_EQ(r.vertices[0].agg_busy, 12.0);
  EXPECT_EQ(r.vertices[1].vertex, 9U);
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
}

TEST(Attribution, EveryOwnerIsReportedExactly) {
  // Thousands of owners, each charged by every hook: owner v gets
  // (v % 7) + 1 task spans of (v % 13) + 1 cycles each, a packet of v % 5
  // flits, and v % 3 AGG cycles.
  constexpr std::uint32_t kOwners = 5000;
  Attribution a = make_sink(kOwners);
  for (std::uint32_t v = 0; v < kOwners; ++v) {
    for (std::uint32_t t = 0; t <= v % 7; ++t) {
      a.complete(Category::kGpe, v % 2, "task", 0.0, 1.0 + v % 13, v, 0);
    }
    a.packet(0, 6, v, v % 5, 1, 64 * (v % 5));
    a.charge(Category::kAgg, 1, v, static_cast<double>(v % 3));
  }
  const AttributionReport r = a.report();
  ASSERT_EQ(r.vertices.size(), kOwners);
  std::vector<bool> seen(kOwners, false);
  for (std::size_t i = 0; i < r.vertices.size(); ++i) {
    const trace::VertexHotspot& h = r.vertices[i];
    ASSERT_LT(h.vertex, kOwners);
    EXPECT_FALSE(seen[h.vertex]) << "owner " << h.vertex << " twice";
    seen[h.vertex] = true;
    const std::uint32_t v = h.vertex;
    EXPECT_DOUBLE_EQ(h.busy, (1.0 + v % 13) * (v % 7 + 1)) << "owner " << v;
    EXPECT_EQ(h.tasks, v % 7 + 1) << "owner " << v;
    EXPECT_EQ(h.flits, v % 5) << "owner " << v;
    EXPECT_EQ(h.bytes, 64U * (v % 5)) << "owner " << v;
    EXPECT_DOUBLE_EQ(h.agg_busy, static_cast<double>(v % 3)) << "owner " << v;
    if (i > 0) {
      const trace::VertexHotspot& prev = r.vertices[i - 1];
      EXPECT_TRUE(prev.busy > h.busy ||
                  (prev.busy == h.busy && prev.vertex < h.vertex))
          << "rows " << i - 1 << " and " << i << " out of order";
    }
  }
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
  // Every task span lands on its vertex: per-vertex task counts add up to
  // the per-tile ones, and per-vertex busy to the flame's "task" total.
  std::uint64_t vertex_tasks = 0;
  double vertex_busy = 0.0;
  for (const auto& v : rs.attribution->vertices) {
    vertex_tasks += v.tasks;
    vertex_busy += v.busy;
  }
  std::uint64_t tile_tasks = 0;
  for (const auto& t : rs.attribution->tiles) tile_tasks += t.tasks;
  EXPECT_EQ(vertex_tasks, tile_tasks);
  double flame_task = 0.0;
  for (const trace::FlameNode& f : rs.profile->merged_flame()) {
    if (f.path == "task") flame_task = f.total;
  }
  ASSERT_GT(flame_task, 0.0);
  EXPECT_NEAR(vertex_busy, flame_task, 1e-9 * flame_task);
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
