// accel::opt + accel::validate: the optimizer must recover the fused form
// from a naively-lowered GCN with a measurable cycle-bound and footprint
// win, every golden benchmark must optimize and re-serialize byte-exactly,
// and — the mutation suite — a deliberately miscompiled output of every
// pass must be rejected by the translation validator. The Session routing
// tests pin the "+opt" provenance (optimized_from, stats JSON v7).
#include "accel/opt.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "accel/analysis.hpp"
#include "accel/compiler.hpp"
#include "accel/ir.hpp"
#include "accel/validate.hpp"
#include "gnn/model.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "sim/json.hpp"
#include "sim/session.hpp"
#include "sim/stats_json.hpp"

#ifndef GNNA_SOURCE_DIR
#define GNNA_SOURCE_DIR "."
#endif

namespace gnna::accel {
namespace {

std::string golden_path(const std::string& file) {
  return std::string(GNNA_SOURCE_DIR) + "/tests/data/golden/" + file;
}

constexpr const char* kGoldenFiles[] = {
    "gcn_cora.gnna",  "gcn_citeseer.gnna",  "gcn_pubmed.gnna",
    "gat_cora.gnna",  "mpnn_qm9_1000.gnna", "pgnn_dblp_1.gnna",
};

/// Small synthetic dataset for optimizer tests (same shape as the
/// compiler tests').
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

/// A naively-lowered GCN: gather+aggregate and projection as separate
/// phases with an intermediate buffer — the input fuse-phases exists for.
CompiledProgram unfused_gcn(const graph::Dataset& ds) {
  CompilerOptions copts;
  copts.fuse_conv = false;
  return ProgramCompiler{copts}.compile(gnn::make_gcn(6, 3, 4), ds);
}

/// Run one pass: its (validated) rewrite, so a mutation can be seeded into
/// it before handing it to the validator.
CompiledProgram raw_pass_output(const CompiledProgram& prog,
                                const std::string& pass,
                                const graph::Dataset* ds = nullptr) {
  opt::OptimizeOptions oo;
  oo.dataset = ds;
  oo.passes = {pass};
  const auto res = opt::optimize_program(prog, oo);
  EXPECT_TRUE(res.changed()) << pass << " made no change to seed into";
  EXPECT_TRUE(res.validated) << res.failure;
  return res.program;
}

/// Rebuild a program's memory map via add_region_at, letting the caller
/// perturb one region (mutation helper for dead-regions / pack-regions).
template <typename Perturb>
CompiledProgram rebuild_memmap(const CompiledProgram& prog, Perturb perturb) {
  CompiledProgram out = prog;
  out.memmap = MemoryMap{};
  for (RegionId r = 0; r < prog.memmap.num_regions(); ++r) {
    Region reg = prog.memmap.region(r);
    perturb(r, reg);
    out.memmap.add_region_at(reg.name, reg.base, reg.bytes, reg.preloaded);
  }
  return out;
}

// ---- the fusion win ----

TEST(Opt, FusionRecoversFusedFormWithCycleAndFootprintWin) {
  const auto ds = tiny_dataset();
  const CompiledProgram naive = unfused_gcn(ds);
  ASSERT_EQ(naive.phases.size(), 4U);  // 2 layers x (agg + proj)

  opt::OptimizeOptions oo;
  oo.dataset = &ds;
  const auto res = opt::optimize_program(naive, oo);
  ASSERT_TRUE(res.validated) << res.failure;
  ASSERT_TRUE(res.changed());

  // Both layers fused back to the hardware's one-phase form.
  ASSERT_EQ(res.program.phases.size(), 2U);
  for (const auto& ph : res.program.phases) {
    EXPECT_EQ(ph.kind, PhaseKind::kGatherAggregate);
    EXPECT_TRUE(ph.has_dna());
    EXPECT_TRUE(ph.has_agg());
  }

  // The win is measurable on both axes: the static cycle bound drops (no
  // intermediate round-trip through memory) and dead-regions +
  // pack-regions reclaim the orphaned intermediate buffers.
  const auto cfg = AcceleratorConfig::cpu_iso_bw();
  const double before = analyze_program(naive, cfg).bound_cycles;
  const double after = analyze_program(res.program, cfg).bound_cycles;
  EXPECT_LT(after, before);
  EXPECT_LT(res.program.memmap.total_bytes(), naive.memmap.total_bytes());
  EXPECT_LT(res.program.memmap.num_regions(), naive.memmap.num_regions());

  // And the whole pipeline proves end to end, not just stepwise.
  validate::ValidationOptions vo;
  vo.dataset = &ds;
  const auto whole = validate::validate_transform(naive, res.program, vo);
  EXPECT_TRUE(whole.equivalent) << whole.to_string();
}

TEST(Opt, FusedProgramMatchesDefaultCompilerOutput) {
  // fuse-phases must recover exactly what the fusing compiler emits —
  // same phases, same cycle bound (names/bases may differ, so compare
  // through the validator and the analysis model rather than the hash).
  const auto ds = tiny_dataset();
  const CompiledProgram fused =
      ProgramCompiler{}.compile(gnn::make_gcn(6, 3, 4), ds);
  opt::OptimizeOptions oo;
  oo.dataset = &ds;
  const auto res = opt::optimize_program(unfused_gcn(ds), oo);
  ASSERT_TRUE(res.validated) << res.failure;
  ASSERT_EQ(res.program.phases.size(), fused.phases.size());
  const auto cfg = AcceleratorConfig::cpu_iso_bw();
  EXPECT_DOUBLE_EQ(analyze_program(res.program, cfg).bound_cycles,
                   analyze_program(fused, cfg).bound_cycles);
}

TEST(Opt, UnknownPassThrows) {
  opt::OptimizeOptions oo;
  oo.passes = {"frobnicate"};
  EXPECT_THROW((void)opt::optimize_program(CompiledProgram{}, oo),
               std::invalid_argument);
}

// ---- optimized-golden round-trip ----

TEST(Opt, AllGoldensOptimizeValidateAndRoundTripByteExact) {
  for (const char* file : kGoldenFiles) {
    const CompiledProgram prog = ir::load_file(golden_path(file));
    const auto res = opt::optimize_program(prog);
    EXPECT_TRUE(res.validated) << file << ": " << res.failure;

    // parse -> optimize -> serialize -> re-parse must be byte-exact.
    const std::string text = ir::serialize(res.program);
    const CompiledProgram reparsed = ir::parse(text, file);
    EXPECT_EQ(ir::serialize(reparsed), text) << file;
    EXPECT_EQ(ir::content_hash(reparsed), ir::content_hash(res.program))
        << file;

    // The end-to-end proof holds for the reloaded program too.
    const auto whole = validate::validate_transform(prog, reparsed);
    EXPECT_TRUE(whole.equivalent) << file << "\n" << whole.to_string();
  }
}

TEST(Opt, DedupContribsShrinksPgnnGolden) {
  // PGNN's walk_len == 1 hop phases carry expected_contribs tables the
  // runtime never reads (direct CSR degrees); dedup-contribs must drop
  // them — the in-tree benchmark where an optimization pass visibly
  // shrinks a shipped program.
  const CompiledProgram prog = ir::load_file(golden_path("pgnn_dblp_1.gnna"));
  const auto res = opt::optimize_program(prog);
  ASSERT_TRUE(res.validated) << res.failure;
  EXPECT_TRUE(res.changed());
  EXPECT_NE(ir::content_hash(res.program), ir::content_hash(prog));
  std::size_t before = 0;
  std::size_t after = 0;
  for (const auto& ph : prog.phases) before += ph.expected_contribs.size();
  for (const auto& ph : res.program.phases) {
    after += ph.expected_contribs.size();
  }
  EXPECT_LT(after, before);
}

// ---- mutation suite: one seeded miscompile per pass, all rejected ----

TEST(OptMutation, FusionWithWrongReduceOpIsRejected) {
  const auto ds = tiny_dataset();
  const CompiledProgram naive = unfused_gcn(ds);
  CompiledProgram bad = raw_pass_output(naive, "fuse-phases", &ds);
  ASSERT_FALSE(bad.phases.empty());
  bad.phases[0].agg_op = bad.phases[0].agg_op == ReduceOp::kMax
                             ? ReduceOp::kSum
                             : ReduceOp::kMax;
  validate::ValidationOptions vo;
  vo.dataset = &ds;
  const auto v = validate::validate_transform(naive, bad, vo);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

TEST(OptMutation, FusionDroppingSelfLoopIsRejected) {
  const auto ds = tiny_dataset();
  const CompiledProgram naive = unfused_gcn(ds);
  CompiledProgram bad = raw_pass_output(naive, "fuse-phases", &ds);
  ASSERT_FALSE(bad.phases.empty());
  bad.phases[0].include_self = !bad.phases[0].include_self;
  const auto v = validate::validate_transform(naive, bad);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

TEST(OptMutation, FusionOfSharedIntermediateIsRejected) {
  // Make the intermediate buffer non-private: a later phase also reads
  // it. A fusion that still swallows it changes observable behavior, so
  // phase-align must refuse to recognize the pair.
  const auto ds = tiny_dataset();
  CompiledProgram naive = unfused_gcn(ds);
  ASSERT_GE(naive.phases.size(), 3U);
  // Legitimate fused output of the private case...
  CompiledProgram bad = raw_pass_output(naive, "fuse-phases", &ds);
  // ...validated against an original where layer 2's aggregate also
  // gathers from layer 1's intermediate (a third reader).
  naive.phases[2].gather = naive.phases[0].output;
  const auto v = validate::validate_transform(naive, bad);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

TEST(OptMutation, DedupDroppingLiveWalkTableIsRejected) {
  // PGNN's walk_len > 1 phases DO read their tables; clearing one is a
  // real miscompile the contribs obligation must catch.
  const CompiledProgram prog = ir::load_file(golden_path("pgnn_dblp_1.gnna"));
  CompiledProgram bad = raw_pass_output(prog, "dedup-contribs");
  bool seeded = false;
  for (auto& ph : bad.phases) {
    if (ph.walk_len > 1 && !ph.expected_contribs.empty()) {
      ph.expected_contribs.clear();
      seeded = true;
      break;
    }
  }
  ASSERT_TRUE(seeded);
  const auto v = validate::validate_transform(prog, bad);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

TEST(OptMutation, DedupCorruptingLiveWalkTableEntryIsRejected) {
  const CompiledProgram prog = ir::load_file(golden_path("pgnn_dblp_1.gnna"));
  CompiledProgram bad = raw_pass_output(prog, "dedup-contribs");
  bool seeded = false;
  for (auto& ph : bad.phases) {
    if (ph.walk_len > 1 && !ph.expected_contribs.empty()) {
      ph.expected_contribs[0] += 1;
      seeded = true;
      break;
    }
  }
  ASSERT_TRUE(seeded);
  const auto v = validate::validate_transform(prog, bad);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

TEST(OptMutation, DeadRegionsShrinkingLiveRegionIsRejected) {
  // A dead-regions pass that miscounts liveness and reclaims half of a
  // live buffer: region sizes no longer match across the map, so the
  // def-use obligation fails.
  const auto ds = tiny_dataset();
  const CompiledProgram naive = unfused_gcn(ds);
  const CompiledProgram fused = raw_pass_output(naive, "fuse-phases", &ds);
  const RegionId victim = fused.phases[0].output.region;
  const CompiledProgram bad =
      rebuild_memmap(fused, [victim](RegionId r, Region& reg) {
        if (r == victim) reg.bytes /= 2;
      });
  const auto v = validate::validate_transform(naive, bad);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

TEST(OptMutation, PackRegionsOverlappingLayoutIsRejected) {
  // A pack-regions pass that slides a region onto its neighbor's extent:
  // the abstract interpretation of extents (GV007 overlap) must flag the
  // optimized program with an error the original never had.
  const CompiledProgram prog = ir::load_file(golden_path("gcn_cora.gnna"));
  ASSERT_GE(prog.memmap.num_regions(), 2U);
  const Addr base0 = prog.memmap.region(0).base;
  const CompiledProgram bad =
      rebuild_memmap(prog, [base0](RegionId r, Region& reg) {
        if (r == 1) reg.base = base0;  // collide with region 0
      });
  const auto v = validate::validate_transform(prog, bad);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

TEST(OptMutation, OptimizerRefusesItsOwnSeededMiscompile) {
  // End to end through optimize_program: a pass whose output fails
  // validation must be discarded — the returned program is the last
  // proven one and `validated` is false. Simulate by validating a
  // dropped-phase "rewrite" directly (phase-align: dropped original).
  const CompiledProgram prog = ir::load_file(golden_path("gcn_cora.gnna"));
  CompiledProgram bad = prog;
  bad.phases.pop_back();
  const auto v = validate::validate_transform(prog, bad);
  EXPECT_FALSE(v.equivalent) << v.to_string();
}

// ---- session routing + stats provenance ----

TEST(Opt, SessionResolveRoutesOptimizedProgramsWithProvenance) {
  sim::Session session;
  sim::RunRequest base;
  base.benchmark = gnn::Benchmark::kPgnnDblp;
  const auto plain = session.resolve(base);
  ASSERT_NE(plain.program, nullptr);
  EXPECT_EQ(plain.optimized_from, 0U);

  sim::RunRequest opt = base;
  opt.optimize = true;
  const auto optimized = session.resolve(opt);
  ASSERT_NE(optimized.program, nullptr);
  // dedup-contribs changes PGNN, so the optimized program is a distinct
  // cache entry with provenance back to the base hash.
  EXPECT_NE(optimized.hash, plain.hash);
  EXPECT_EQ(optimized.optimized_from, plain.hash);
  EXPECT_NE(optimized.source.find("+opt"), std::string::npos)
      << optimized.source;

  // Identity case: the golden GCN is already optimal, so the optimizer
  // returns the cached program itself (same hash, no new cache entry).
  sim::RunRequest gcn;
  gcn.benchmark = gnn::Benchmark::kGcnCora;
  const auto gcn_plain = session.resolve(gcn);
  gcn.optimize = true;
  const auto gcn_opt = session.resolve(gcn);
  EXPECT_EQ(gcn_opt.hash, gcn_plain.hash);
  EXPECT_EQ(gcn_opt.program.get(), gcn_plain.program.get());
}

TEST(Opt, StatsJsonV7EmitsOptimizedFromOnlyForOptimizedRuns) {
  // A tiny ad-hoc PGNN: walk_len == 1 tables get deduped, so the run
  // executes an optimizer-rewritten program and the stats JSON must carry
  // the v7 provenance field; the plain run must not.
  sim::Session session;
  auto ds = std::make_shared<graph::Dataset>(tiny_dataset(1));
  sim::RunRequest req;
  req.model = gnn::make_pgnn(1, 3, 4, 3, 2);
  req.dataset = ds;
  req.verify = false;

  const auto plain = session.run(req);
  req.optimize = true;
  const auto optimized = session.run(req);
  EXPECT_EQ(plain.optimized_from, 0U);
  EXPECT_NE(optimized.optimized_from, 0U);
  EXPECT_EQ(optimized.optimized_from, plain.program_hash);

  std::ostringstream plain_os;
  std::ostringstream opt_os;
  sim::write_run_stats_json(plain_os, plain);
  sim::write_run_stats_json(opt_os, optimized);
  const auto pv = sim::json::Value::parse(plain_os.str());
  const auto ov = sim::json::Value::parse(opt_os.str());
  EXPECT_EQ(pv.find("schema_version")->as_number(),
            sim::kStatsJsonSchemaVersion);
  EXPECT_EQ(pv.find("optimized_from"), nullptr);
  const sim::json::Value* from = ov.find("optimized_from");
  ASSERT_NE(from, nullptr);
  char expect[32];
  std::snprintf(expect, sizeof expect, "%016llx",
                static_cast<unsigned long long>(plain.program_hash));
  EXPECT_EQ(from->as_string(), expect);
}

}  // namespace
}  // namespace gnna::accel
