// Static program verifier (accel::verify): every lint code must fire on a
// hand-crafted bad program, and every shipped model family must verify
// completely clean (zero errors AND zero warnings).
#include "accel/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "accel/analysis.hpp"
#include "accel/compiler.hpp"
#include "accel/config.hpp"
#include "gnn/model.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "graph/graph.hpp"
#include "sim/session.hpp"

namespace gnna::accel {
namespace {

graph::Dataset tiny_dataset(std::uint32_t vf = 6, std::uint32_t ef = 0) {
  Rng rng(3);
  graph::Dataset ds;
  ds.spec = {"tiny", 1, 20, 40, vf, ef, 3};
  ds.graphs.push_back(graph::generate_random_graph(rng, 20, 40));
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  ds.node_features.emplace_back(std::size_t{20} * vf, 0.5F);
  ds.edge_features.emplace_back(std::size_t{40} * ef, 0.5F);
  return ds;
}

/// Keeps the dataset alive alongside the program that references it (the
/// dataset lives on the heap so moving Compiled doesn't invalidate the
/// program's non-owning dataset pointer).
struct Compiled {
  std::unique_ptr<graph::Dataset> ds;
  CompiledProgram prog;
};

Compiled compile(const gnn::ModelSpec& model, graph::Dataset ds) {
  Compiled c;
  c.ds = std::make_unique<graph::Dataset>(std::move(ds));
  c.prog = ProgramCompiler{}.compile(model, *c.ds);
  return c;
}

Compiled gcn() { return compile(gnn::make_gcn(6, 3, 4), tiny_dataset()); }

// ---- clean programs ----

TEST(Verify, CleanModelFamiliesProduceNoDiagnostics) {
  const TileParams params;
  const auto check = [&](const Compiled& c) {
    const VerifyReport r = verify_program(c.prog, params, c.ds.get());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_TRUE(r.diagnostics.empty()) << r.to_string();
  };
  check(gcn());
  check(compile(gnn::make_gat(6, 3, 2, 4), tiny_dataset()));
  check(compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5)));
  check(compile(gnn::make_pgnn(1, 3, 4, 3, 2), tiny_dataset(1)));
}

TEST(Verify, AllShippedBenchmarksVerifyClean) {
  sim::Session& session = sim::Session::global();
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    sim::RunRequest req;
    req.benchmark = b;
    const auto resolved = session.resolve(req);
    // Bind the full config so GV108 and the GV2xx perf-lint family run
    // too: shipped benchmarks must be clean of all of them.
    const VerifyReport r =
        verify_program(*resolved.program, req.config.tile_params,
                       resolved.dataset.get(), &req.config, req.partition);
    EXPECT_TRUE(r.diagnostics.empty())
        << gnn::benchmark_name(b) << ":\n" << r.to_string();
  }
}

// ---- GV001: oversized DNQ entry ----

TEST(Verify, OversizedDnqEntryIsDeadlockError) {
  const auto c = gcn();
  TileParams params;
  params.dnq_data_bytes = 16;  // phase 0 needs a 24B queue-0 entry
  const VerifyReport r = verify_program(c.prog, params);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kDnqEntryTooLarge)) << r.to_string();
}

TEST(Verify, OversizedQueue1EntryIsDeadlockError) {
  // MPNN's GRU entry (agg_width + dna2_gpe_words = 16 words = 64B) must
  // fit virtual queue 1, which only gets half the scratchpad.
  auto c = compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5));
  TileParams params;
  params.dnq_data_bytes = 160;  // q1 = 80B with the default 8/16 split
  params.dnq_queue0_sixteenths = 15;  // q1 = 10B < 64B
  const VerifyReport r = verify_program(c.prog, params);
  EXPECT_TRUE(r.has(LintCode::kDnqEntryTooLarge)) << r.to_string();
}

// ---- GV002: oversized AGG entry ----

TEST(Verify, OversizedAggEntryIsDeadlockError) {
  const auto c = gcn();
  TileParams params;
  params.agg_data_bytes = 16;  // phase 0 aggregates 6-word (24B) vectors
  const VerifyReport r = verify_program(c.prog, params);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kAggEntryTooLarge)) << r.to_string();
}

// ---- GV003: non-associative reduce op ----

TEST(Verify, NonAssociativeAggOpIsError) {
  auto c = gcn();
  c.prog.phases[0].agg_op = ReduceOp::kMean;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kNonAssociativeAggOp)) << r.to_string();
}

// ---- GV004: bad buffer references ----

TEST(Verify, OutOfRangeRegionIdIsError) {
  auto c = gcn();
  c.prog.phases[0].output.region = 999;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadBufferRef)) << r.to_string();
}

TEST(Verify, OutputWidthMismatchIsError) {
  auto c = gcn();
  c.prog.phases[0].output.width_words = 7;  // DNA produces 4 words
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadBufferRef)) << r.to_string();
}

TEST(Verify, UndersizedRegionIsError) {
  auto c = gcn();
  // Point the output at a region far too small for 20 vertices x 4 words.
  c.prog.phases[1].output.region =
      c.prog.memmap.add_region("small", 8);
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadBufferRef)) << r.to_string();
}

// ---- GV005: bad DNA models ----

TEST(Verify, MismatchedMatmulChainIsError) {
  auto c = gcn();
  // Stage 1 consumes neither the width (4) nor the full output (4 words)
  // of stage 0.
  c.prog.phases[0].dna_shapes = {{1, 6, 4}, {1, 5, 7}};
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kBadDnaModel)) << r.to_string();
}

TEST(Verify, HypernetworkChainIsAccepted) {
  // MPNN-style: stage 0 emits a 2x3 weight matrix consumed as stage 1's
  // k x n — legal even though 2 != 6.
  auto c = gcn();
  c.prog.phases[0].dna_shapes = {{1, 6, 6}, {1, 2, 3}};
  c.prog.phases[0].dna_out_words = 3;
  c.prog.phases[0].output.width_words = 3;
  // Keep the extent valid for the narrower output.
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_FALSE(r.has(LintCode::kBadDnaModel)) << r.to_string();
}

TEST(Verify, OutWordsBeyondFinalStageIsError) {
  auto c = gcn();
  c.prog.phases[0].dna_out_words = 99;  // final stage emits 4 words
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadDnaModel)) << r.to_string();
}

TEST(Verify, ProjectPhaseWithoutDnaIsError) {
  auto c = compile(gnn::make_gat(6, 3, 2, 4), tiny_dataset());
  ASSERT_EQ(c.prog.phases[0].kind, PhaseKind::kProject);
  c.prog.phases[0].dna_shapes.clear();
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadDnaModel)) << r.to_string();
}

// ---- GV006: expected_contribs vs the walk tree ----

TEST(Verify, WrongWalkCountIsError) {
  auto c = compile(gnn::make_pgnn(1, 3, 4, 2, 1), tiny_dataset(1));
  ASSERT_GT(c.prog.phases[1].walk_len, 1U);
  c.prog.phases[1].expected_contribs[0] += 1;
  const VerifyReport r = verify_program(c.prog, TileParams{}, c.ds.get());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kBadExpectedContribs)) << r.to_string();
}

TEST(Verify, TruncatedWalkCountsAreError) {
  auto c = compile(gnn::make_pgnn(1, 3, 4, 2, 1), tiny_dataset(1));
  c.prog.phases[1].expected_contribs.resize(3);
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadExpectedContribs)) << r.to_string();
}

// ---- GV007: malformed memory maps ----

TEST(Verify, OverlappingRegionsAreError) {
  auto c = gcn();
  c.prog.memmap.add_region_at("overlap", c.prog.memmap.region(0).base + 64,
                              256);
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kBadMemoryMap)) << r.to_string();
}

TEST(Verify, MisalignedRegionIsError) {
  auto c = gcn();
  c.prog.memmap.add_region_at("odd", c.prog.memmap.total_bytes() + 4, 16);
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadMemoryMap)) << r.to_string();
}

// ---- GV008: read before write ----

TEST(Verify, ReadBeforeWriteIsError) {
  auto c = gcn();
  // Run layer 2 before layer 1: layer 2 gathers layer 1's output, which
  // no earlier phase has written.
  std::swap(c.prog.phases[0], c.prog.phases[1]);
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kReadBeforeWrite)) << r.to_string();
}

// ---- GV009: illegal phase combinations ----

TEST(Verify, AggregateKindWithoutAggWidthIsError) {
  auto c = gcn();
  c.prog.phases[0].agg_width_words = 0;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kIllegalPhaseCombo)) << r.to_string();
}

TEST(Verify, PerEdgeExtrasWithSelfContributionIsError) {
  auto c = compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5));
  ASSERT_EQ(c.prog.phases[1].kind, PhaseKind::kEdgeDnaAggregate);
  ASSERT_TRUE(c.prog.phases[1].extra_inputs_per_edge);
  c.prog.phases[1].include_self = true;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kIllegalPhaseCombo)) << r.to_string();
}

// ---- GV010: unusable tile parameters ----

TEST(Verify, ZeroAluTileParamsAreError) {
  const auto c = gcn();
  TileParams params;
  params.agg_alus = 0;
  const VerifyReport r = verify_program(c.prog, params);
  EXPECT_TRUE(r.has(LintCode::kBadTileParams)) << r.to_string();
}

TEST(Verify, BadQueueSplitIsError) {
  const auto c = gcn();
  TileParams params;
  params.dnq_queue0_sixteenths = 17;
  const VerifyReport r = verify_program(c.prog, params);
  EXPECT_TRUE(r.has(LintCode::kBadTileParams)) << r.to_string();
}

// ---- warnings ----

TEST(Verify, SingleEntryAggScratchpadWarns) {
  const auto c = gcn();
  TileParams params;
  params.agg_data_bytes = 44;  // one 24B entry fits, two don't
  const VerifyReport r = verify_program(c.prog, params);
  EXPECT_TRUE(r.ok()) << r.to_string();  // warning, not error
  EXPECT_TRUE(r.has(LintCode::kAggLowConcurrency)) << r.to_string();
}

TEST(Verify, SingleEntryDnqQueueWarns) {
  const auto c = gcn();
  TileParams params;
  params.dnq_data_bytes = 32;  // phase 0's 24B entry fits, two don't
  const VerifyReport r = verify_program(c.prog, params);
  EXPECT_TRUE(r.has(LintCode::kDnqLowConcurrency)) << r.to_string();
}

TEST(Verify, DeadStoreWarns) {
  auto c = compile(gnn::make_gat(6, 3, 2, 4), tiny_dataset());
  // Make the attention phase gather the raw input instead of the
  // projection output: the projection's result is never read.
  ASSERT_EQ(c.prog.phases[1].kind, PhaseKind::kEdgeDnaAggregate);
  c.prog.phases[1].gather = BufferRef{0 /* set below */, 6};
  // Region of the preloaded input buffer.
  for (RegionId id = 0; id < c.prog.memmap.num_regions(); ++id) {
    if (c.prog.memmap.region(id).name == "input") {
      c.prog.phases[1].gather.region = id;
    }
  }
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kDeadStore)) << r.to_string();
}

TEST(Verify, MismatchedUnusedContribsWarn) {
  auto c = compile(gnn::make_pgnn(1, 3, 4, 2, 1), tiny_dataset(1));
  ASSERT_EQ(c.prog.phases[0].walk_len, 1U);
  ASSERT_FALSE(c.prog.phases[0].expected_contribs.empty());
  c.prog.phases[0].expected_contribs[0] += 5;
  const VerifyReport r = verify_program(c.prog, TileParams{}, c.ds.get());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(r.has(LintCode::kUnusedExpectedContribs)) << r.to_string();
}

TEST(Verify, WeightsWithoutDnaWarn) {
  auto c = gcn();
  c.prog.phases[0].dna_shapes.clear();
  c.prog.phases[0].dna_out_words = 0;
  // agg_width (6) now lands directly in the output buffer.
  c.prog.phases[0].output.width_words = 6;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kWeightsWithoutDna)) << r.to_string();
}

TEST(Verify, OutputClobberingPreloadWarns) {
  auto c = gcn();
  for (RegionId id = 0; id < c.prog.memmap.num_regions(); ++id) {
    if (c.prog.memmap.region(id).name == "input") {
      c.prog.phases[0].output.region = id;
    }
  }
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kOutputClobbersPreload)) << r.to_string();
}

// ---- GV011: malformed graph-layout tables ----

TEST(Verify, EmptyGraphLayoutTableIsError) {
  auto c = gcn();
  c.prog.graphs.clear();
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kBadGraphLayout)) << r.to_string();
}

TEST(Verify, NonContiguousLayoutOffsetsAreError) {
  auto c = gcn();
  c.prog.graphs[0].node_offset = 7;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadGraphLayout)) << r.to_string();
}

TEST(Verify, UndersizedRowPtrRegionIsError) {
  auto c = gcn();
  // Claim more vertices than the rowptr region (and dataset) hold.
  c.prog.graphs[0].num_nodes += 100;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.has(LintCode::kBadGraphLayout)) << r.to_string();
}

// ---- GV012: layout table vs the bound dataset ----

TEST(Verify, LayoutDatasetEdgeCountMismatchIsError) {
  auto c = gcn();
  // Shrink the claimed edge count: the topology regions still cover it,
  // so only the dataset comparison can catch the lie.
  c.prog.graphs[0].num_edges -= 2;
  const VerifyReport r = verify_program(c.prog, TileParams{}, c.ds.get());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(LintCode::kDatasetMismatch)) << r.to_string();
}

TEST(Verify, LayoutGraphCountMismatchIsError) {
  auto c = gcn();
  c.prog.graphs.push_back(c.prog.graphs[0]);  // one more than the dataset
  const VerifyReport r = verify_program(c.prog, TileParams{}, c.ds.get());
  EXPECT_TRUE(r.has(LintCode::kDatasetMismatch)) << r.to_string();
}

// ---- GV107: no dataset bound ----

TEST(Verify, NoDatasetBoundWarnsOnce) {
  const auto c = gcn();
  const VerifyReport r = verify_program(c.prog, TileParams{});
  EXPECT_TRUE(r.ok()) << r.to_string();  // warning only
  EXPECT_TRUE(r.has(LintCode::kNoDatasetBound)) << r.to_string();
  std::size_t n = 0;
  for (const auto& d : r.diagnostics) {
    if (d.code == LintCode::kNoDatasetBound) ++n;
  }
  EXPECT_EQ(n, 1U);
}

// ---- GV108: the static model's NoC term exceeds its memory term ----

/// A shipped benchmark compiled against its dataset (cached by the
/// process-wide session).
sim::Session::Resolved shipped(gnn::Benchmark b) {
  sim::RunRequest req;
  req.benchmark = b;
  return sim::Session::global().resolve(req);
}

/// gpu-iso-bw with the given bandwidth per memory node (8 nodes).
AcceleratorConfig gpu_with_memory(double gb_per_s) {
  AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
  cfg.mem_params.bandwidth = Bandwidth::gb_per_s(gb_per_s);
  return cfg;
}

VerifyReport verify_on(const sim::Session::Resolved& r,
                       const AcceleratorConfig& cfg) {
  return verify_program(*r.program, cfg.tile_params, r.dataset.get(), &cfg);
}

/// Names of the phases GV108 fires on, in program order.
std::vector<std::string> gv108_phases(const VerifyReport& r) {
  std::vector<std::string> names;
  for (const auto& d : r.diagnostics) {
    if (d.code == LintCode::kNocBisectionSaturated) {
      names.push_back(d.phase_name);
    }
  }
  return names;
}

TEST(Verify, OverprovisionedMemorySaturatesBisectionWarning) {
  // 400 GB/s per node makes GCN/Cora's first layer NoC-bound: its wide
  // gather rows lose little to 64B line rounding, so the payload crossing
  // the 4x4 mesh's bisection outlasts the memory bus. The second layer
  // stays just memory-bound.
  const auto cora = shipped(gnn::Benchmark::kGcnCora);
  const AcceleratorConfig cfg = gpu_with_memory(400.0);
  const VerifyReport r = verify_on(cora, cfg);
  EXPECT_TRUE(r.ok()) << r.to_string();  // warning, not an error
  EXPECT_EQ(gv108_phases(r), std::vector<std::string>{"gc1"})
      << r.to_string();
  for (const auto& d : r.diagnostics) {
    if (d.code != LintCode::kNocBisectionSaturated) continue;
    EXPECT_EQ(d.severity, Severity::kWarning);
    // The message names both terms and the payload.
    EXPECT_NE(d.message.find("NoC term"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("memory term"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("payload"), std::string::npos) << d.message;
  }
  AnalysisOptions opt;
  opt.dataset = cora.dataset.get();
  const ProgramAnalysis pa = analyze_program(*cora.program, cfg, opt);
  ASSERT_EQ(pa.phases.size(), 2U);
  EXPECT_NEAR(pa.phases[0].noc_cycles, 76930.0, 1.0);
  EXPECT_NEAR(pa.phases[0].memory_cycles, 59555.0, 1.0);
  EXPECT_NEAR(pa.phases[1].noc_cycles, 1031.0, 1.0);
  EXPECT_NEAR(pa.phases[1].memory_cycles, 1053.0, 1.0);
}

TEST(Verify, SkinnyMeshLowersTheBisectionBound) {
  // At 200 GB/s per node the 4x4 mesh keeps GCN/Cora memory-bound; a
  // 16x1 chain's single-link bisection (min(W,H) = 1) quadruples the NoC
  // term and both layers become NoC-bound.
  const auto cora = shipped(gnn::Benchmark::kGcnCora);
  AcceleratorConfig cfg = gpu_with_memory(200.0);
  EXPECT_TRUE(gv108_phases(verify_on(cora, cfg)).empty());
  cfg.mesh_width = 16;
  cfg.mesh_height = 1;
  const VerifyReport r = verify_on(cora, cfg);
  EXPECT_EQ(gv108_phases(r), (std::vector<std::string>{"gc1", "gc2"}))
      << r.to_string();
}

TEST(Verify, PartialLinesKeepTinyGcnMemoryBound) {
  // The tiny GCN's 24B rows cost a whole 64B line on the memory bus but
  // only 24B on the NoC, so even 400 GB/s per node leaves it
  // memory-bound: no GV108.
  const auto c = gcn();
  const AcceleratorConfig cfg = gpu_with_memory(400.0);
  const VerifyReport r =
      verify_program(c.prog, cfg.tile_params, c.ds.get(), &cfg);
  EXPECT_FALSE(r.has(LintCode::kNocBisectionSaturated)) << r.to_string();
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  for (const PhaseModel& m : analyze_program(c.prog, cfg, opt).phases) {
    EXPECT_LE(m.noc_cycles, m.memory_cycles) << m.name;
  }
}

TEST(Verify, Gv108FiresExactlyWhereTheNocTermExceedsTheMemoryTerm) {
  AcceleratorConfig skinny = gpu_with_memory(200.0);
  skinny.mesh_width = 16;
  skinny.mesh_height = 1;
  const AcceleratorConfig configs[] = {
      AcceleratorConfig::cpu_iso_bw(), AcceleratorConfig::gpu_iso_bw(),
      gpu_with_memory(400.0), skinny};
  std::size_t fired = 0, quiet = 0;
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    const auto res = shipped(b);
    AnalysisOptions opt;
    opt.dataset = res.dataset.get();
    for (const AcceleratorConfig& cfg : configs) {
      const VerifyReport r = verify_on(res, cfg);
      const ProgramAnalysis pa = analyze_program(*res.program, cfg, opt);
      for (std::size_t i = 0; i < pa.phases.size(); ++i) {
        const PhaseModel& m = pa.phases[i];
        const bool has = std::any_of(
            r.diagnostics.begin(), r.diagnostics.end(),
            [&](const VerifyDiagnostic& d) {
              return d.code == LintCode::kNocBisectionSaturated &&
                     d.phase == static_cast<int>(i);
            });
        EXPECT_EQ(has, m.noc_cycles > m.memory_cycles)
            << gnn::benchmark_name(b) << " on " << cfg.name << ", phase "
            << m.name << ": NoC " << m.noc_cycles << " vs memory "
            << m.memory_cycles;
        ++(has ? fired : quiet);
      }
    }
  }
  // Both outcomes occur, so the equivalence is not vacuous.
  EXPECT_GT(fired, 0U);
  EXPECT_GT(quiet, 0U);

  // PGNN/DBLP_1 moves far more served bytes than payload (pg1.A4: NoC
  // ~24k cycles vs memory ~296k): memory-bound on all 8 phases.
  const auto pgnn = shipped(gnn::Benchmark::kPgnnDblp);
  const VerifyReport r = verify_on(pgnn, gpu_with_memory(400.0));
  EXPECT_EQ(pgnn.program->phases.size(), 8U);
  EXPECT_TRUE(gv108_phases(r).empty()) << r.to_string();
}

TEST(Verify, Gv108IsSuppressedOnBrokenPrograms) {
  // Like the GV2xx family, GV108 needs a program the model can trust.
  const auto cora = shipped(gnn::Benchmark::kGcnCora);
  CompiledProgram broken = *cora.program;
  broken.phases[1].agg_op = ReduceOp::kMean;  // GV003
  const AcceleratorConfig cfg = gpu_with_memory(400.0);
  const VerifyReport r = verify_program(broken, cfg.tile_params,
                                        cora.dataset.get(), &cfg);
  EXPECT_TRUE(r.has(LintCode::kNonAssociativeAggOp)) << r.to_string();
  EXPECT_FALSE(r.has(LintCode::kNocBisectionSaturated)) << r.to_string();
}

TEST(Verify, ShippedConfigsDoNotSaturateBisection) {
  const auto c = gcn();
  const auto cora = shipped(gnn::Benchmark::kGcnCora);
  for (const AcceleratorConfig& cfg :
       {AcceleratorConfig::cpu_iso_bw(), AcceleratorConfig::gpu_iso_bw(),
        AcceleratorConfig::gpu_iso_flops()}) {
    const VerifyReport r =
        verify_program(c.prog, TileParams{}, c.ds.get(), &cfg);
    EXPECT_FALSE(r.has(LintCode::kNocBisectionSaturated))
        << cfg.name << ":\n" << r.to_string();
    EXPECT_TRUE(gv108_phases(verify_on(cora, cfg)).empty()) << cfg.name;
  }
}

TEST(Verify, NoConfigSkipsBisectionCheck) {
  const auto cora = shipped(gnn::Benchmark::kGcnCora);
  const VerifyReport r = verify_program(
      *cora.program, TileParams{}, cora.dataset.get());
  EXPECT_FALSE(r.has(LintCode::kNocBisectionSaturated));
}

// ---- report plumbing ----

TEST(Verify, VerifyOrThrowCarriesTheReport) {
  auto c = gcn();
  c.prog.phases[0].agg_op = ReduceOp::kMean;
  try {
    (void)verify_or_throw(c.prog, TileParams{});
    FAIL() << "expected ProgramVerifyError";
  } catch (const ProgramVerifyError& e) {
    EXPECT_TRUE(e.report().has(LintCode::kNonAssociativeAggOp));
    EXPECT_NE(std::string(e.what()).find("GV003"), std::string::npos);
  }
}

TEST(Verify, WarningsDoNotThrow) {
  const auto c = gcn();
  TileParams params;
  params.agg_data_bytes = 44;
  const VerifyReport r = verify_or_throw(c.prog, params);
  EXPECT_EQ(r.num_errors(), 0U);
  EXPECT_GE(r.num_warnings(), 1U);
}

TEST(Verify, ReportPrintsCodeAndPhaseProvenance) {
  auto c = gcn();
  c.prog.phases[1].agg_op = ReduceOp::kMean;
  const VerifyReport r = verify_program(c.prog, TileParams{});
  std::ostringstream os;
  r.print(os);
  EXPECT_NE(os.str().find("GV003"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("phase 1"), std::string::npos) << os.str();
}

TEST(Verify, LintCodeTableIsCompleteAndStable) {
  const auto table = lint_code_table();
  EXPECT_EQ(table.size(), 24U);
  EXPECT_STREQ(lint_code_name(LintCode::kDnqEntryTooLarge), "GV001");
  EXPECT_STREQ(lint_code_name(LintCode::kOutputClobbersPreload), "GV106");
  EXPECT_STREQ(lint_code_name(LintCode::kNocBisectionSaturated), "GV108");
  EXPECT_STREQ(lint_code_name(LintCode::kReuseDistanceThrash), "GV201");
  EXPECT_STREQ(lint_code_name(LintCode::kQueueSplitStarved), "GV202");
  EXPECT_STREQ(lint_code_name(LintCode::kBankCamping), "GV203");
  EXPECT_STREQ(lint_code_name(LintCode::kPartitionImbalance), "GV204");
  for (const auto& e : table) {
    EXPECT_EQ(e.severity, lint_code_severity(e.code));
    EXPECT_FALSE(std::string_view(e.summary).empty())
        << lint_code_name(e.code);
  }
}

TEST(Verify, LintFamiliesPartitionTheTable) {
  EXPECT_EQ(lint_code_family(LintCode::kDnqEntryTooLarge),
            LintFamily::kError);
  EXPECT_EQ(lint_code_family(LintCode::kAggLowConcurrency),
            LintFamily::kWarning);
  EXPECT_EQ(lint_code_family(LintCode::kReuseDistanceThrash),
            LintFamily::kPerf);
  EXPECT_STREQ(lint_family_name(LintFamily::kError), "errors");
  EXPECT_STREQ(lint_family_name(LintFamily::kWarning), "warnings");
  EXPECT_STREQ(lint_family_name(LintFamily::kPerf), "perf");
  for (const auto& e : lint_code_table()) {
    // Perf lints are warnings severity-wise (they never abort a run).
    if (lint_code_family(e.code) == LintFamily::kPerf) {
      EXPECT_EQ(e.severity, Severity::kWarning) << lint_code_name(e.code);
    }
    // Family follows the code-number band: <100 errors, <200 warnings.
    const auto n = static_cast<int>(e.code);
    EXPECT_EQ(lint_code_family(e.code),
              n < 100 ? LintFamily::kError
                      : (n < 200 ? LintFamily::kWarning : LintFamily::kPerf))
        << lint_code_name(e.code);
  }
}

/// Exhaustive registry check: every code in the lint table has a crafted
/// program/config scenario that fires it. A new LintCode without a
/// scenario here fails the `default:` branch — extend the switch when you
/// extend the enum.
VerifyReport fire_scenario(LintCode code) {
  switch (code) {
    case LintCode::kDnqEntryTooLarge: {
      const auto c = gcn();
      TileParams p;
      p.dnq_data_bytes = 16;
      return verify_program(c.prog, p);
    }
    case LintCode::kAggEntryTooLarge: {
      const auto c = gcn();
      TileParams p;
      p.agg_data_bytes = 16;
      return verify_program(c.prog, p);
    }
    case LintCode::kNonAssociativeAggOp: {
      auto c = gcn();
      c.prog.phases[0].agg_op = ReduceOp::kMean;
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kBadBufferRef: {
      auto c = gcn();
      c.prog.phases[0].output.region = 999;
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kBadDnaModel: {
      auto c = gcn();
      c.prog.phases[0].dna_shapes = {{1, 6, 4}, {1, 5, 7}};
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kBadExpectedContribs: {
      auto c = compile(gnn::make_pgnn(1, 3, 4, 2, 1), tiny_dataset(1));
      c.prog.phases[1].expected_contribs[0] += 1;
      return verify_program(c.prog, TileParams{}, c.ds.get());
    }
    case LintCode::kBadMemoryMap: {
      auto c = gcn();
      c.prog.memmap.add_region_at("overlap",
                                  c.prog.memmap.region(0).base + 64, 256);
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kReadBeforeWrite: {
      auto c = gcn();
      std::swap(c.prog.phases[0], c.prog.phases[1]);
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kIllegalPhaseCombo: {
      auto c = gcn();
      c.prog.phases[0].agg_width_words = 0;
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kBadTileParams: {
      const auto c = gcn();
      TileParams p;
      p.agg_alus = 0;
      return verify_program(c.prog, p);
    }
    case LintCode::kBadGraphLayout: {
      auto c = gcn();
      c.prog.graphs.clear();
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kDatasetMismatch: {
      auto c = gcn();
      c.prog.graphs[0].num_edges -= 2;
      return verify_program(c.prog, TileParams{}, c.ds.get());
    }
    case LintCode::kAggLowConcurrency: {
      const auto c = gcn();
      TileParams p;
      p.agg_data_bytes = 44;
      return verify_program(c.prog, p);
    }
    case LintCode::kDnqLowConcurrency: {
      const auto c = gcn();
      TileParams p;
      p.dnq_data_bytes = 32;
      return verify_program(c.prog, p);
    }
    case LintCode::kDeadStore: {
      auto c = compile(gnn::make_gat(6, 3, 2, 4), tiny_dataset());
      c.prog.phases[1].gather = BufferRef{0, 6};
      for (RegionId id = 0; id < c.prog.memmap.num_regions(); ++id) {
        if (c.prog.memmap.region(id).name == "input") {
          c.prog.phases[1].gather.region = id;
        }
      }
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kUnusedExpectedContribs: {
      auto c = compile(gnn::make_pgnn(1, 3, 4, 2, 1), tiny_dataset(1));
      c.prog.phases[0].expected_contribs[0] += 5;
      return verify_program(c.prog, TileParams{}, c.ds.get());
    }
    case LintCode::kWeightsWithoutDna: {
      auto c = gcn();
      c.prog.phases[0].dna_shapes.clear();
      c.prog.phases[0].dna_out_words = 0;
      c.prog.phases[0].output.width_words = 6;
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kOutputClobbersPreload: {
      auto c = gcn();
      for (RegionId id = 0; id < c.prog.memmap.num_regions(); ++id) {
        if (c.prog.memmap.region(id).name == "input") {
          c.prog.phases[0].output.region = id;
        }
      }
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kNoDatasetBound: {
      const auto c = gcn();
      return verify_program(c.prog, TileParams{});
    }
    case LintCode::kNocBisectionSaturated:
      return verify_on(shipped(gnn::Benchmark::kGcnCora),
                       gpu_with_memory(400.0));
    case LintCode::kReuseDistanceThrash: {
      const auto c = gcn();
      AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
      cfg.tile_params.agg_data_bytes = 80;  // 3 entries, healthy is 4
      return verify_program(c.prog, cfg.tile_params, c.ds.get(), &cfg);
    }
    case LintCode::kQueueSplitStarved: {
      auto c = compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5));
      AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
      cfg.tile_params.dnq_data_bytes = 1600;
      cfg.tile_params.dnq_queue0_sixteenths = 15;
      return verify_program(c.prog, cfg.tile_params, c.ds.get(), &cfg);
    }
    case LintCode::kBankCamping: {
      const auto c = gcn();
      AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
      cfg.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
      cfg.mem_params.banks = 8;
      cfg.mem_params.row_bytes = 4096;
      cfg.mem_params.bank_interleave_bytes = 4096;
      return verify_program(c.prog, cfg.tile_params, c.ds.get(), &cfg);
    }
    case LintCode::kPartitionImbalance: {
      // A 40-vertex star concentrates vertex 0's load on one tile under
      // any static partition.
      graph::Dataset ds;
      graph::GraphBuilder gb(40);
      for (NodeId v = 1; v < 40; ++v) gb.add_undirected_edge(0, v);
      ds.graphs.push_back(std::move(gb).build());
      ds.undirected.push_back(ds.graphs[0].symmetrized());
      ds.spec = {"star", 1, 40, ds.graphs[0].num_edges(), 6, 0, 3};
      ds.node_features.emplace_back(std::size_t{40} * 6, 0.5F);
      ds.edge_features.emplace_back(0);
      auto c = compile(gnn::make_gcn(6, 3, 4), std::move(ds));
      const AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
      return verify_program(c.prog, cfg.tile_params, c.ds.get(), &cfg,
                            graph::PartitionPolicy::kBlock);
    }
  }
  ADD_FAILURE() << "no firing scenario for lint code "
                << static_cast<int>(code);
  return VerifyReport{};
}

TEST(Verify, EveryLintCodeHasAFiringScenario) {
  for (const auto& e : lint_code_table()) {
    const VerifyReport r = fire_scenario(e.code);
    EXPECT_TRUE(r.has(e.code))
        << lint_code_name(e.code) << " scenario did not fire:\n"
        << r.to_string();
  }
}

// ---- MemoryMap hardening (satellite) ----

TEST(MemoryMap, AddRegionGuardsAddrOverflow) {
  MemoryMap mm;
  (void)mm.add_region("a", 64);
  EXPECT_THROW((void)mm.add_region("huge", ~std::uint64_t{0} - 32),
               std::overflow_error);
  // The failed request must not have disturbed the cursor.
  const RegionId ok = mm.add_region("b", 64);
  EXPECT_EQ(mm.region(ok).base, 64U);
}

TEST(MemoryMap, AddRegionAtGuardsAddrOverflow) {
  MemoryMap mm;
  EXPECT_THROW(
      (void)mm.add_region_at("wrap", ~std::uint64_t{0} - 100, 200),
      std::overflow_error);
}

}  // namespace
}  // namespace gnna::accel
