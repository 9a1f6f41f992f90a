// Static analytic performance model (accel::analysis): the roofline bound
// must stay a true lower bound on every shipped benchmark's measured cycle
// count (and a tight one on GCN/Cora), every GV2xx perf lint must fire on
// a crafted degenerate configuration while staying clean on the shipped
// benchmarks, and every suggest_fixes() suggestion — applied and re-linted
// — must clear the diagnostic it targets.
#include "accel/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "accel/compiler.hpp"
#include "accel/config.hpp"
#include "accel/opt.hpp"
#include "accel/verify.hpp"
#include "gnn/model.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "graph/graph.hpp"
#include "sim/options.hpp"
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

/// A 40-vertex star: vertex 0 touches every other vertex, so any static
/// partition concentrates its load on one tile.
graph::Dataset star_dataset(std::uint32_t vf = 6, std::uint32_t ef = 0) {
  graph::Dataset ds;
  graph::GraphBuilder gb(40);
  for (NodeId v = 1; v < 40; ++v) gb.add_undirected_edge(0, v);
  ds.graphs.push_back(std::move(gb).build());
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  ds.spec = {"star", 1, 40, ds.graphs[0].num_edges(), vf, ef, 3};
  ds.node_features.emplace_back(std::size_t{40} * vf, 0.5F);
  ds.edge_features.emplace_back(
      std::size_t{ds.graphs[0].num_edges()} * ef, 0.5F);
  return ds;
}

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

bool lints_fire(const std::vector<PerfDiagnostic>& lints, LintCode code) {
  return std::any_of(lints.begin(), lints.end(),
                     [code](const PerfDiagnostic& d) {
                       return d.code == code;
                     });
}

// ---- cycle lower bound vs. the measured golden counts ----

// Measured end-to-end cycle counts of the six benchmarks on cpu-iso-bw and
// gpu-iso-bw, seed 2020, default threads, round-robin partition.
// test_golden pins the two cpu-iso-bw Cora counts; CI (the
// full-size-cycles job) simulates all twelve runs and reads its expected
// counts from this table, so keep one `{"<name>", "<config>",
// <cycles>.0},` row each.
// The static bound must sit at or below every one of them: the model
// counts a strict subset of the work the simulator serializes on the same
// resource.
struct GoldenBound {
  const char* benchmark;  // gnn::benchmark_name
  const char* config;     // sim::config_by_name
  double measured_cycles;
};

constexpr GoldenBound kGoldens[] = {
    {"GCN/Cora", "cpu-iso-bw", 2871294.0},
    {"GCN/Citeseer", "cpu-iso-bw", 6822970.0},
    {"GCN/Pubmed", "cpu-iso-bw", 8687246.0},
    {"GAT/Cora", "cpu-iso-bw", 1775046.0},
    {"MPNN/QM9_1000", "cpu-iso-bw", 220668937.0},
    {"PGNN/DBLP_1", "cpu-iso-bw", 47914224.0},
    {"GCN/Cora", "gpu-iso-bw", 415489.0},
    {"GCN/Citeseer", "gpu-iso-bw", 1040417.0},
    {"GCN/Pubmed", "gpu-iso-bw", 1348707.0},
    {"GAT/Cora", "gpu-iso-bw", 250121.0},
    {"MPNN/QM9_1000", "gpu-iso-bw", 30543846.0},
    {"PGNN/DBLP_1", "gpu-iso-bw", 17482014.0},
};

TEST(Analysis, BoundIsBelowMeasuredOnAllGoldenBenchmarks) {
  sim::Session& session = sim::Session::global();
  for (const GoldenBound& g : kGoldens) {
    sim::RunRequest req;
    req.benchmark = *sim::benchmark_by_name(g.benchmark);
    req.config = *sim::config_by_name(g.config);
    const auto resolved = session.resolve(req);
    AnalysisOptions opt;
    opt.dataset = resolved.dataset.get();
    const ProgramAnalysis pa =
        analyze_program(*resolved.program, req.config, opt);
    EXPECT_GT(pa.bound_cycles, 0.0) << g.benchmark << ' ' << g.config;
    EXPECT_LE(pa.bound_cycles, g.measured_cycles)
        << g.benchmark << ' ' << g.config
        << ": static bound exceeds the measured cycle count "
           "(the model is no longer a lower bound)";
  }
}

TEST(Analysis, BoundIsTightOnGcnCora) {
  sim::Session& session = sim::Session::global();
  sim::RunRequest req;
  req.benchmark = gnn::Benchmark::kGcnCora;
  const auto resolved = session.resolve(req);
  AnalysisOptions opt;
  opt.dataset = resolved.dataset.get();
  const ProgramAnalysis pa =
      analyze_program(*resolved.program, req.config, opt);
  // With the DNA pipeline-drain term modeled, the bound explains more
  // than 98.5% of the measured cycles — pin the tightness so a model
  // regression (a dropped term) fails loudly instead of silently loosening
  // the bound.
  EXPECT_GE(pa.bound_cycles, 0.985 * 2871294.0);
}

// ---- model structure ----

TEST(Analysis, PhaseModelsCoverEveryPhaseAndSumToTheBound) {
  const auto c = gcn();
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const ProgramAnalysis pa =
      analyze_program(c.prog, AcceleratorConfig::cpu_iso_bw(), opt);
  ASSERT_EQ(pa.phases.size(), c.prog.phases.size());
  double sum = 0.0;
  for (const PhaseModel& ph : pa.phases) {
    EXPECT_FALSE(ph.name.empty());
    // The bound is the max of the three roofline axes...
    EXPECT_DOUBLE_EQ(
        ph.bound_cycles,
        std::max({ph.compute_cycles, ph.memory_cycles, ph.noc_cycles}));
    // ...and the compute axis the max of its per-unit terms.
    EXPECT_DOUBLE_EQ(
        ph.compute_cycles,
        std::max({ph.gpe_cycles, ph.dna_cycles, ph.agg_cycles}));
    EXPECT_TRUE(std::strcmp(ph.bottleneck, "gpe") == 0 ||
                std::strcmp(ph.bottleneck, "dna") == 0 ||
                std::strcmp(ph.bottleneck, "agg") == 0 ||
                std::strcmp(ph.bottleneck, "memory") == 0 ||
                std::strcmp(ph.bottleneck, "noc") == 0)
        << ph.bottleneck;
    EXPECT_GT(ph.read_bytes, 0U);
    sum += ph.bound_cycles;
  }
  EXPECT_DOUBLE_EQ(pa.bound_cycles, sum);
}

TEST(Analysis, OccupancyReflectsTheQueueSplit) {
  const auto c = gcn();
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const ProgramAnalysis pa = analyze_program(c.prog, cfg, opt);
  const PhaseModel& ph = pa.phases[0];
  EXPECT_TRUE(ph.dnq0.used);
  EXPECT_FALSE(ph.dnq1.used);  // GCN has no second DNA stage
  EXPECT_TRUE(ph.agg.used);
  EXPECT_GT(ph.dnq0.concurrency, 0U);
  EXPECT_GT(ph.agg.concurrency, 0U);
  // With no second DNA stage the virtual-queue split does not apply:
  // queue 0 gets the whole DNQ scratchpad.
  EXPECT_EQ(ph.dnq0.capacity_bytes,
            std::uint64_t{cfg.tile_params.dnq_data_bytes});

  // On a dna2 model (MPNN) both queues are live and the split divides
  // the scratchpad dnq_queue0_sixteenths/16 vs the rest.
  auto m = compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5));
  const ProgramAnalysis mpa = analyze_program(m.prog, cfg, [&] {
    AnalysisOptions o;
    o.dataset = m.ds.get();
    return o;
  }());
  bool saw_dna2 = false;
  for (const PhaseModel& mp : mpa.phases) {
    if (!mp.dnq1.used) continue;
    saw_dna2 = true;
    EXPECT_EQ(mp.dnq0.capacity_bytes,
              std::uint64_t{cfg.tile_params.dnq_data_bytes} *
                  cfg.tile_params.dnq_queue0_sixteenths / 16);
    EXPECT_EQ(mp.dnq1.capacity_bytes,
              std::uint64_t{cfg.tile_params.dnq_data_bytes} *
                  (16 - cfg.tile_params.dnq_queue0_sixteenths) / 16);
  }
  EXPECT_TRUE(saw_dna2);
}

TEST(Analysis, NeverThrowsOnDefectivePrograms) {
  auto c = gcn();
  c.prog.phases[0].output.region = 999;  // dangling buffer ref
  c.prog.phases[0].dna_shapes = {{0, 0, 0}};
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  cfg.tile_params.agg_alus = 0;
  cfg.tile_params.dnq_data_bytes = 0;
  EXPECT_NO_THROW({
    const ProgramAnalysis pa = analyze_program(c.prog, cfg);
    (void)pa;
  });
}

// ---- GV201: scratchpad reuse-distance thrash ----

TEST(Analysis, ReuseDistanceThrashFiresOnNarrowAggScratchpad) {
  const auto c = gcn();
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  // Three 24B entries fit: >= 2 (so GV101 stays quiet) but below the
  // healthy quarter of the 16-thread GPE pool (4).
  cfg.tile_params.agg_data_bytes = 80;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const auto lints = perf_lints(c.prog, cfg, opt);
  EXPECT_TRUE(lints_fire(lints, LintCode::kReuseDistanceThrash));
}

TEST(Analysis, ReuseDistanceFixIsVerifiedAndClears) {
  const auto c = gcn();
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  cfg.tile_params.agg_data_bytes = 80;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const auto fixes = suggest_fixes(c.prog, cfg, opt);
  ASSERT_EQ(fixes.size(), 1U);
  const FixSuggestion& fix = fixes[0];
  EXPECT_EQ(fix.code, LintCode::kReuseDistanceThrash);
  EXPECT_TRUE(fix.verified);
  EXPECT_NE(fix.manifest_snippet.find("tile_agg_data_bytes="),
            std::string::npos)
      << fix.manifest_snippet;
  // Apply the patched config ourselves and re-lint: the diagnostic is gone.
  AnalysisOptions fixed_opt;
  fixed_opt.dataset = c.ds.get();
  fixed_opt.partition = fix.partition;
  const auto relint = perf_lints(c.prog, fix.patched, fixed_opt);
  EXPECT_FALSE(lints_fire(relint, LintCode::kReuseDistanceThrash));
}

// ---- GV202: DNQ virtual-queue split starvation ----

TEST(Analysis, QueueSplitStarvationFiresOnSkewedSplit) {
  auto c = compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5));
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  // 15/16 of 1600B leaves queue 1 a single 64B entry; an 8/16 split would
  // give both queues >= 2.
  cfg.tile_params.dnq_data_bytes = 1600;
  cfg.tile_params.dnq_queue0_sixteenths = 15;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const auto lints = perf_lints(c.prog, cfg, opt);
  EXPECT_TRUE(lints_fire(lints, LintCode::kQueueSplitStarved));
}

TEST(Analysis, QueueSplitFixRebalancesAndClears) {
  auto c = compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5));
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  cfg.tile_params.dnq_data_bytes = 1600;
  cfg.tile_params.dnq_queue0_sixteenths = 15;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const auto fixes = suggest_fixes(c.prog, cfg, opt);
  const auto it = std::find_if(fixes.begin(), fixes.end(),
                               [](const FixSuggestion& f) {
                                 return f.code == LintCode::kQueueSplitStarved;
                               });
  ASSERT_NE(it, fixes.end());
  EXPECT_TRUE(it->verified);
  EXPECT_NE(it->manifest_snippet.find("tile_dnq_queue0_sixteenths="),
            std::string::npos)
      << it->manifest_snippet;
  EXPECT_NE(it->patched.tile_params.dnq_queue0_sixteenths, 15U);
  AnalysisOptions fixed_opt;
  fixed_opt.dataset = c.ds.get();
  fixed_opt.partition = it->partition;
  const auto relint = perf_lints(c.prog, it->patched, fixed_opt);
  EXPECT_FALSE(lints_fire(relint, LintCode::kQueueSplitStarved));
}

// ---- GV203: predicted bank camping ----

TEST(Analysis, BankCampingFiresWhenPageInterleaveSwallowsTheBankStride) {
  const auto c = gcn();
  // 4096B page interleave == 4096B bank interleave: every granule a
  // controller serves lands on the same bank index modulo the controller
  // count, so each of the 8 banks sees traffic from one controller only.
  AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
  cfg.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  cfg.mem_params.banks = 8;
  cfg.mem_params.row_bytes = 4096;
  cfg.mem_params.bank_interleave_bytes = 4096;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const auto lints = perf_lints(c.prog, cfg, opt);
  EXPECT_TRUE(lints_fire(lints, LintCode::kBankCamping));
  // Whole-program finding: not attributed to any phase.
  for (const PerfDiagnostic& d : lints) {
    if (d.code == LintCode::kBankCamping) {
      EXPECT_EQ(d.phase, -1);
    }
  }
}

TEST(Analysis, BankCampingFixEnablesXorPermutationAndClears) {
  const auto c = gcn();
  AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
  cfg.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  cfg.mem_params.banks = 8;
  cfg.mem_params.row_bytes = 4096;
  cfg.mem_params.bank_interleave_bytes = 4096;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const auto fixes = suggest_fixes(c.prog, cfg, opt);
  const auto it = std::find_if(fixes.begin(), fixes.end(),
                               [](const FixSuggestion& f) {
                                 return f.code == LintCode::kBankCamping;
                               });
  ASSERT_NE(it, fixes.end());
  EXPECT_TRUE(it->verified);
  EXPECT_TRUE(it->patched.mem_params.bank_xor);
  EXPECT_NE(it->manifest_snippet.find("mem_bank_xor=1"), std::string::npos)
      << it->manifest_snippet;
  const auto relint = perf_lints(c.prog, it->patched, opt);
  EXPECT_FALSE(lints_fire(relint, LintCode::kBankCamping));
}

TEST(Analysis, DefaultInterleaveDoesNotCampBanks) {
  const auto c = gcn();
  AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
  cfg.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  const auto lints = perf_lints(c.prog, cfg, opt);
  EXPECT_FALSE(lints_fire(lints, LintCode::kBankCamping));
}

// ---- GV204: modeled partition load imbalance ----

TEST(Analysis, PartitionImbalanceFiresOnStarGraphUnderBlockPartition) {
  auto c = compile(gnn::make_gcn(6, 3, 4), star_dataset());
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  opt.partition = graph::PartitionPolicy::kBlock;
  const auto lints =
      perf_lints(c.prog, AcceleratorConfig::gpu_iso_bw(), opt);
  EXPECT_TRUE(lints_fire(lints, LintCode::kPartitionImbalance));
}

TEST(Analysis, PartitionImbalanceFixIsVerifiedAndClears) {
  auto c = compile(gnn::make_gcn(6, 3, 4), star_dataset());
  const AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  opt.partition = graph::PartitionPolicy::kBlock;
  const auto fixes = suggest_fixes(c.prog, cfg, opt);
  const auto it = std::find_if(fixes.begin(), fixes.end(),
                               [](const FixSuggestion& f) {
                                 return f.code ==
                                        LintCode::kPartitionImbalance;
                               });
  ASSERT_NE(it, fixes.end());
  EXPECT_TRUE(it->verified);
  EXPECT_NE(it->partition, graph::PartitionPolicy::kBlock);
  EXPECT_NE(it->manifest_snippet.find("partition="), std::string::npos)
      << it->manifest_snippet;
  AnalysisOptions fixed_opt;
  fixed_opt.dataset = c.ds.get();
  fixed_opt.partition = it->partition;
  const auto relint = perf_lints(c.prog, it->patched, fixed_opt);
  EXPECT_FALSE(lints_fire(relint, LintCode::kPartitionImbalance));
}

// ---- GV202 + GV204 joint fix search ----

TEST(Analysis, JointSplitPartitionFixClearsBothLints) {
  // MPNN (dna2 phases -> the split matters) on a star graph (block
  // partition concentrates the per-edge load): a starved 15/16 split and
  // an imbalanced partition fire together, and neither per-lint greedy
  // fix could verify — rebalancing the split still re-lints imbalanced,
  // switching the partition still re-lints starved.
  auto c = compile(gnn::make_mpnn(6, 5, 3, 8, 2), star_dataset(6, 5));
  AcceleratorConfig cfg = AcceleratorConfig::gpu_iso_bw();
  cfg.tile_params.dnq_data_bytes = 1600;
  cfg.tile_params.dnq_queue0_sixteenths = 15;
  AnalysisOptions opt;
  opt.dataset = c.ds.get();
  opt.partition = graph::PartitionPolicy::kBlock;
  const auto lints = perf_lints(c.prog, cfg, opt);
  ASSERT_TRUE(lints_fire(lints, LintCode::kQueueSplitStarved));
  ASSERT_TRUE(lints_fire(lints, LintCode::kPartitionImbalance));

  const auto fixes = suggest_fixes(c.prog, cfg, opt);
  const auto find = [&](LintCode code) {
    return std::find_if(fixes.begin(), fixes.end(),
                        [code](const FixSuggestion& f) {
                          return f.code == code;
                        });
  };
  const auto split_fix = find(LintCode::kQueueSplitStarved);
  const auto part_fix = find(LintCode::kPartitionImbalance);
  ASSERT_NE(split_fix, fixes.end());
  ASSERT_NE(part_fix, fixes.end());
  // The joint search hands both codes one shared (split, partition)
  // point...
  EXPECT_EQ(split_fix->patched.tile_params.dnq_queue0_sixteenths,
            part_fix->patched.tile_params.dnq_queue0_sixteenths);
  EXPECT_EQ(split_fix->partition, part_fix->partition);
  EXPECT_NE(split_fix->patched.tile_params.dnq_queue0_sixteenths, 15U);
  EXPECT_NE(part_fix->partition, graph::PartitionPolicy::kBlock);
  EXPECT_TRUE(split_fix->verified) << split_fix->description;
  EXPECT_TRUE(part_fix->verified) << part_fix->description;
  // ...and that point clears both codes at once.
  AnalysisOptions fixed_opt;
  fixed_opt.dataset = c.ds.get();
  fixed_opt.partition = split_fix->partition;
  const auto relint = perf_lints(c.prog, split_fix->patched, fixed_opt);
  EXPECT_FALSE(lints_fire(relint, LintCode::kQueueSplitStarved));
  EXPECT_FALSE(lints_fire(relint, LintCode::kPartitionImbalance));
  // Each manifest snippet ships the whole joint configuration, so
  // applying either one lands on the verified point.
  EXPECT_NE(split_fix->manifest_snippet.find("partition="),
            std::string::npos)
      << split_fix->manifest_snippet;
  EXPECT_NE(part_fix->manifest_snippet.find("tile_dnq_queue0_sixteenths="),
            std::string::npos)
      << part_fix->manifest_snippet;
}

// ---- shipped benchmarks stay clean ----

TEST(Analysis, ShippedBenchmarksFireNoPerfLints) {
  sim::Session& session = sim::Session::global();
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    sim::RunRequest req;
    req.benchmark = b;
    const auto resolved = session.resolve(req);
    AnalysisOptions opt;
    opt.dataset = resolved.dataset.get();
    const auto lints = perf_lints(*resolved.program, req.config, opt);
    EXPECT_TRUE(lints.empty()) << gnn::benchmark_name(b) << ": "
                               << (lints.empty() ? "" : lints[0].message);
    // ...and with no perf lints firing, suggest_fixes has nothing to do.
    EXPECT_TRUE(suggest_fixes(*resolved.program, req.config, opt).empty());
  }
}

// ---- verify integration (the GV2xx family in VerifyReport) ----

TEST(Analysis, VerifyProgramCarriesPerfLintsWhenConfigBound) {
  const auto c = gcn();
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  cfg.tile_params.agg_data_bytes = 80;
  const VerifyReport r =
      verify_program(c.prog, cfg.tile_params, c.ds.get(), &cfg);
  EXPECT_TRUE(r.has(LintCode::kReuseDistanceThrash)) << r.to_string();
  EXPECT_TRUE(r.ok()) << r.to_string();  // warnings, not errors
}

TEST(Analysis, PerfLintsAreSuppressedOnBrokenPrograms) {
  auto c = gcn();
  c.prog.phases[0].agg_op = ReduceOp::kMean;  // GV003 error
  AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
  cfg.tile_params.agg_data_bytes = 80;  // would fire GV201 when clean
  const VerifyReport r =
      verify_program(c.prog, cfg.tile_params, c.ds.get(), &cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.has(LintCode::kReuseDistanceThrash)) << r.to_string();
}

// ---- one concurrency rule: phase_footprint's ----

bool fires_on(const VerifyReport& r, LintCode code, std::size_t phase) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const VerifyDiagnostic& d) {
                       return d.code == code &&
                              d.phase == static_cast<int>(phase);
                     });
}

TEST(Analysis, EveryConcurrencyCheckReadsTheFootprint) {
  // Scratchpad sizes around the 0/1/2-entry edges of the tiny programs'
  // 16-64B entries, with and without a virtual-queue split.
  const std::uint32_t sizes[] = {16, 24, 40, 48, 64, 100, 128,
                                 160, 256, 1024, 63488};
  const std::uint32_t splits[] = {0, 1, 4, 8, 12, 15, 16};
  const Compiled programs[] = {
      gcn(), compile(gnn::make_gat(6, 3, 2, 4), tiny_dataset()),
      compile(gnn::make_mpnn(6, 5, 3, 8, 2), tiny_dataset(6, 5))};
  // How often each rule met 0, 1 and >= 2 entries: all must occur.
  std::size_t seen[3] = {0, 0, 0};
  for (const Compiled& c : programs) {
    for (const std::uint32_t dnq : sizes) {
      for (const std::uint32_t agg : sizes) {
        for (const std::uint32_t split : splits) {
          AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
          TileParams& tp = cfg.tile_params;
          tp.dnq_data_bytes = dnq;
          tp.agg_data_bytes = agg;
          tp.dnq_queue0_sixteenths = split;
          const VerifyReport r = verify_program(c.prog, tp);
          const ProgramAnalysis pa = analyze_program(c.prog, cfg);
          for (std::size_t i = 0; i < c.prog.phases.size(); ++i) {
            const PhaseFootprint fp = phase_footprint(c.prog.phases[i], tp);
            const auto at = [](std::uint32_t words, std::uint64_t entries,
                               std::uint64_t n) {
              return words > 0 && entries == n;
            };
            const std::uint64_t q0 = fp.dnq0_concurrency();
            const std::uint64_t q1 = fp.dnq1_concurrency();
            const std::uint64_t ag = fp.agg_concurrency();
            const std::string where = c.prog.phases[i].name + " dnq=" +
                                      std::to_string(dnq) + " agg=" +
                                      std::to_string(agg) + " split=" +
                                      std::to_string(split);
            EXPECT_EQ(fires_on(r, LintCode::kDnqEntryTooLarge, i),
                      at(fp.dnq0_entry_words, q0, 0) ||
                          at(fp.dnq1_entry_words, q1, 0))
                << where;
            EXPECT_EQ(fires_on(r, LintCode::kDnqLowConcurrency, i),
                      at(fp.dnq0_entry_words, q0, 1) ||
                          at(fp.dnq1_entry_words, q1, 1))
                << where;
            EXPECT_EQ(fires_on(r, LintCode::kAggEntryTooLarge, i),
                      at(fp.agg_entry_words, ag, 0))
                << where;
            EXPECT_EQ(fires_on(r, LintCode::kAggLowConcurrency, i),
                      at(fp.agg_entry_words, ag, 1))
                << where;
            const PhaseModel& m = pa.phases[i];
            EXPECT_EQ(m.dnq0.concurrency, q0) << where;
            EXPECT_EQ(m.dnq1.concurrency, q1) << where;
            EXPECT_EQ(m.agg.concurrency, ag) << where;
            // Concurrency is the number of whole entries that fit.
            const auto fits = [&](std::uint32_t words, std::uint32_t bytes,
                                  std::uint64_t entries) {
              if (words == 0) return;
              const std::uint64_t entry = std::uint64_t{words} * 4;
              EXPECT_LE(entries * entry, bytes) << where;
              EXPECT_GT((entries + 1) * entry, bytes) << where;
              ++seen[std::min<std::uint64_t>(entries, 2)];
            };
            fits(fp.dnq0_entry_words, fp.dnq0_bytes, q0);
            fits(fp.dnq1_entry_words, fp.dnq1_bytes, q1);
            fits(fp.agg_entry_words, fp.agg_bytes, ag);
          }
        }
      }
    }
  }
  EXPECT_GT(seen[0], 0U);
  EXPECT_GT(seen[1], 0U);
  EXPECT_GT(seen[2], 0U);
}

TEST(Analysis, FusePhasesFusesExactlyWhenTheFusedFootprintAdmitsTwo) {
  // The default compiler emits the fused GCN; the naive lowering is what
  // fuse-phases rewrites into it, one pair per layer.
  const auto fused = gcn();
  CompilerOptions copts;
  copts.fuse_conv = false;
  const CompiledProgram naive =
      ProgramCompiler{copts}.compile(gnn::make_gcn(6, 3, 4), *fused.ds);
  ASSERT_EQ(naive.phases.size(), 2 * fused.prog.phases.size());
  std::size_t none = 0, all = 0;
  for (const std::uint32_t dnq : {16U, 24U, 32U, 40U, 48U, 64U, 1024U}) {
    AcceleratorConfig cfg = AcceleratorConfig::cpu_iso_bw();
    cfg.tile_params.dnq_data_bytes = dnq;
    std::size_t admitted = 0;
    for (const PhaseSpec& ph : fused.prog.phases) {
      admitted += static_cast<std::size_t>(
          phase_footprint(ph, cfg.tile_params).dnq0_concurrency() >= 2);
    }
    opt::OptimizeOptions oo;
    oo.dataset = fused.ds.get();
    oo.config = &cfg;
    oo.passes = {"fuse-phases"};
    const opt::OptimizeResult res = opt::optimize_program(naive, oo);
    ASSERT_TRUE(res.validated) << res.failure;
    EXPECT_EQ(naive.phases.size() - res.program.phases.size(), admitted)
        << "dnq_data_bytes=" << dnq;
    none += static_cast<std::size_t>(admitted == 0);
    all += static_cast<std::size_t>(admitted == fused.prog.phases.size());
  }
  EXPECT_GT(none, 0U);
  EXPECT_GT(all, 0U);
}

}  // namespace
}  // namespace gnna::accel
