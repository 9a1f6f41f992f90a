// GNNA-IR (accel/ir): the serialize/parse round-trip must be byte-exact
// for every shipped benchmark, content hashes must be stable, parse errors
// must carry line numbers, and the checked-in golden .gnna files must both
// match the compiler's current output and simulate bit-identically after a
// reload (GCN/Cora pins the 2871294-cycle golden).
#include "accel/ir.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

#include "accel/compiler.hpp"
#include "accel/simulator.hpp"
#include "accel/validate.hpp"
#include "accel/verify.hpp"
#include "gnn/model.hpp"
#include "sim/session.hpp"
#include "temp_path.hpp"

#ifndef GNNA_SOURCE_DIR
#define GNNA_SOURCE_DIR "."
#endif

namespace gnna::accel {
namespace {

std::string golden_path(const std::string& file) {
  return std::string(GNNA_SOURCE_DIR) + "/tests/data/golden/" + file;
}

struct GoldenEntry {
  gnn::Benchmark benchmark;
  const char* file;
};

constexpr GoldenEntry kGoldens[] = {
    {gnn::Benchmark::kGcnCora, "gcn_cora.gnna"},
    {gnn::Benchmark::kGcnCiteseer, "gcn_citeseer.gnna"},
    {gnn::Benchmark::kGcnPubmed, "gcn_pubmed.gnna"},
    {gnn::Benchmark::kGatCora, "gat_cora.gnna"},
    {gnn::Benchmark::kMpnnQm9, "mpnn_qm9_1000.gnna"},
    {gnn::Benchmark::kPgnnDblp, "pgnn_dblp_1.gnna"},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- round-trip ----

TEST(Ir, RoundTripIsByteExactForAllBenchmarks) {
  sim::Session& session = sim::Session::global();
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    sim::RunRequest req;
    req.benchmark = b;
    const auto resolved = session.resolve(req);
    const std::string text = ir::serialize(*resolved.program);
    const CompiledProgram reparsed = ir::parse(text, gnn::benchmark_name(b));
    EXPECT_EQ(ir::serialize(reparsed), text) << gnn::benchmark_name(b);
    EXPECT_EQ(ir::content_hash(reparsed), ir::content_hash(*resolved.program))
        << gnn::benchmark_name(b);
  }
}

TEST(Ir, ParsePreservesEveryProgramField) {
  sim::Session& session = sim::Session::global();
  sim::RunRequest req;
  req.benchmark = gnn::Benchmark::kGatCora;
  const auto resolved = session.resolve(req);
  const CompiledProgram& a = *resolved.program;
  const CompiledProgram b = ir::parse(ir::serialize(a), "gat");

  EXPECT_EQ(b.name, a.name);
  ASSERT_EQ(b.memmap.num_regions(), a.memmap.num_regions());
  EXPECT_EQ(b.memmap.total_bytes(), a.memmap.total_bytes());
  for (RegionId r = 0; r < a.memmap.num_regions(); ++r) {
    EXPECT_EQ(b.memmap.region(r).name, a.memmap.region(r).name);
    EXPECT_EQ(b.memmap.region(r).base, a.memmap.region(r).base);
    EXPECT_EQ(b.memmap.region(r).bytes, a.memmap.region(r).bytes);
    EXPECT_EQ(b.memmap.region(r).preloaded, a.memmap.region(r).preloaded);
  }
  ASSERT_EQ(b.graphs.size(), a.graphs.size());
  EXPECT_EQ(b.total_vertices(), a.total_vertices());
  ASSERT_EQ(b.phases.size(), a.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const PhaseSpec& pa = a.phases[i];
    const PhaseSpec& pb = b.phases[i];
    EXPECT_EQ(pb.name, pa.name);
    for (const ir::PhaseField& f : ir::phase_fields()) {
      EXPECT_TRUE(std::visit([&](auto m) { return pb.*m == pa.*m; },
                             f.member))
          << pa.name << ' ' << f.name;
    }
    EXPECT_EQ(pb.dna_shapes.size(), pa.dna_shapes.size());
    EXPECT_EQ(pb.dna2_shapes.size(), pa.dna2_shapes.size());
    EXPECT_EQ(pb.extra_inputs.size(), pa.extra_inputs.size());
    EXPECT_EQ(pb.expected_contribs, pa.expected_contribs);
  }
}

TEST(Ir, EveryPhaseFieldRoundTripsAndIsValidated) {
  // Each single-line field, changed on GAT/Cora's first attention phase
  // (it gathers, runs the DNA, aggregates and streams weights, so every
  // field is live there), must survive serialize -> parse, and the
  // translation validator must refuse the change, naming the field.
  sim::Session& session = sim::Session::global();
  sim::RunRequest req;
  req.benchmark = gnn::Benchmark::kGatCora;
  const CompiledProgram& original = *session.resolve(req).program;
  constexpr std::size_t kPhase = 1;
  ASSERT_EQ(original.phases.at(kPhase).name, "gat1.att");
  ASSERT_EQ(original.phases[kPhase].kind, PhaseKind::kEdgeDnaAggregate);
  ASSERT_GT(original.phases[kPhase].weight_bytes, 0U);

  for (const ir::PhaseField& f : ir::phase_fields()) {
    CompiledProgram changed = original;
    PhaseSpec& ph = changed.phases[kPhase];
    std::visit(
        [&](auto m) {
          auto& v = ph.*m;
          using T = std::remove_reference_t<decltype(v)>;
          if constexpr (std::is_same_v<T, PhaseKind>) {
            v = PhaseKind::kGatherAggregate;
          } else if constexpr (std::is_same_v<T, BufferRef>) {
            ++v.width_words;
          } else if constexpr (std::is_same_v<T, ReduceOp>) {
            v = ReduceOp::kMax;
          } else if constexpr (std::is_same_v<T, bool>) {
            v = !v;
          } else if (f.names_region) {
            v = ph.output.region;  // already bound to another region
          } else {
            ++v;
          }
        },
        f.member);
    const PhaseSpec& before = original.phases[kPhase];
    ASSERT_FALSE(
        std::visit([&](auto m) { return ph.*m == before.*m; }, f.member))
        << f.name;

    const CompiledProgram reparsed = ir::parse(ir::serialize(changed), "gat");
    const PhaseSpec& after = reparsed.phases[kPhase];
    EXPECT_TRUE(
        std::visit([&](auto m) { return after.*m == ph.*m; }, f.member))
        << f.name << " lost in the round trip";

    const validate::ValidationResult r =
        validate::validate_transform(original, changed);
    EXPECT_FALSE(r.equivalent) << f.name;
    const std::string named =
        std::string(f.name) + (f.names_region ? ": " : " differs");
    EXPECT_NE(r.to_string().find(named), std::string::npos)
        << f.name << ":\n" << r.to_string();
  }
}

TEST(Ir, RoundTrippedProgramVerifiesCleanAgainstDataset) {
  sim::Session& session = sim::Session::global();
  sim::RunRequest req;
  req.benchmark = gnn::Benchmark::kGcnCora;
  const auto resolved = session.resolve(req);
  const CompiledProgram reparsed =
      ir::parse(ir::serialize(*resolved.program), "roundtrip");
  const VerifyReport r =
      verify_program(reparsed, TileParams{}, resolved.dataset.get());
  EXPECT_TRUE(r.diagnostics.empty()) << r.to_string();
}

// ---- hashing ----

TEST(Ir, HashIsFnv1a64) {
  // Pin the exact hash function: a changed algorithm would silently
  // invalidate every cache key and golden hash.
  EXPECT_EQ(ir::hash_text(""), 14695981039346656037ULL);
  EXPECT_EQ(ir::hash_text("a"), 12638187200555641996ULL);
}

TEST(Ir, HashChangesWhenProgramChanges) {
  sim::Session& session = sim::Session::global();
  sim::RunRequest req;
  req.benchmark = gnn::Benchmark::kGcnCora;
  const auto resolved = session.resolve(req);
  CompiledProgram mutated = *resolved.program;
  mutated.phases[0].dna_out_words += 1;
  EXPECT_NE(ir::content_hash(mutated), ir::content_hash(*resolved.program));
}

// ---- hand-written programs ----

TEST(Ir, AcceptsCommentsReorderedFieldsAndOmittedScalars) {
  const std::string text =
      "# hand-written program\n"
      "gnna-ir 1\n"
      "\n"
      "program \"hand\"\n"
      "region 0 \"buf\" base=0 bytes=64 preloaded=1  # the only region\n"
      "graph 0 rowptr=0 colidx=0 nodes=4 edges=6 node_offset=0 "
      "edge_offset=0\n"
      "phase 0 \"p\" {\n"
      "  output region=0 width=2\n"  // fields in non-canonical order
      "  dna_out_words 2\n"
      "  kind project\n"
      "}\n"
      "end\n";
  const CompiledProgram prog = ir::parse(text, "hand");
  EXPECT_EQ(prog.name, "hand");
  ASSERT_EQ(prog.phases.size(), 1U);
  EXPECT_EQ(prog.phases[0].kind, PhaseKind::kProject);
  EXPECT_EQ(prog.phases[0].dna_out_words, 2U);
  // Omitted scalars keep PhaseSpec defaults.
  EXPECT_EQ(prog.phases[0].walk_len, PhaseSpec{}.walk_len);
  EXPECT_EQ(prog.phases[0].agg_op, PhaseSpec{}.agg_op);
  // And the canonical form round-trips from here on.
  const std::string canon = ir::serialize(prog);
  EXPECT_EQ(ir::serialize(ir::parse(canon, "canon")), canon);
}

TEST(Ir, QuotedNamesWithEscapesRoundTrip) {
  sim::Session& session = sim::Session::global();
  sim::RunRequest req;
  req.benchmark = gnn::Benchmark::kGcnCora;
  const auto resolved = session.resolve(req);
  CompiledProgram prog = *resolved.program;
  prog.name = "weird \"name\" with \\ backslash";
  const CompiledProgram back = ir::parse(ir::serialize(prog), "esc");
  EXPECT_EQ(back.name, prog.name);
}

// ---- parse errors ----

void expect_parse_error(const std::string& text, std::size_t line,
                        const std::string& fragment) {
  try {
    (void)ir::parse(text, "bad");
    FAIL() << "expected IrParseError for: " << fragment;
  } catch (const ir::IrParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("bad:"), std::string::npos)
        << "message must carry the source name: " << e.what();
  }
}

TEST(Ir, ParseErrorsCarrySourceAndLine) {
  expect_parse_error("", 1, "empty input");
  expect_parse_error("gnna-ir 99\nend\n", 1, "unsupported gnna-ir version");
  expect_parse_error("bogus header\n", 1, "expected header");
  expect_parse_error("gnna-ir 1\nprogram \"x\"\nfrob 1\nend\n", 3,
                     "unknown directive");
  expect_parse_error(
      "gnna-ir 1\nprogram \"x\"\nregion 5 \"r\" base=0 bytes=64 "
      "preloaded=0\nend\n",
      3, "sequential");
  expect_parse_error("gnna-ir 1\nprogram \"x\"\n", 2, "missing 'end'");
  expect_parse_error("gnna-ir 1\nend\n", 2, "missing 'program'");
  expect_parse_error("gnna-ir 1\nprogram \"x\"\nend\nextra\n", 4,
                     "content after 'end'");
  expect_parse_error(
      "gnna-ir 1\nprogram \"x\"\nphase 0 \"p\" {\n  kind project\n  kind "
      "project\n}\nend\n",
      5, "duplicate phase field");
  expect_parse_error(
      "gnna-ir 1\nprogram \"x\"\nphase 0 \"p\" {\n  sprocket 3\n}\nend\n", 4,
      "unknown phase field");
  expect_parse_error("gnna-ir 1\nprogram \"x\"\nphase 0 \"p\" {\n", 3,
                     "end of file inside phase block");
  expect_parse_error(
      "gnna-ir 1\nprogram \"x\"\nregion 0 \"r\" base=-4 bytes=64 "
      "preloaded=0\nend\n",
      3, "bad unsigned integer");
  expect_parse_error("gnna-ir 1\nprogram \"unterminated\n", 2,
                     "unterminated quoted string");
}

// ---- golden files ----

TEST(Ir, GoldenFilesMatchCompilerOutputByteExactly) {
  sim::Session& session = sim::Session::global();
  for (const GoldenEntry& g : kGoldens) {
    sim::RunRequest req;
    req.benchmark = g.benchmark;
    const auto resolved = session.resolve(req);
    EXPECT_EQ(read_file(golden_path(g.file)),
              ir::serialize(*resolved.program))
        << g.file << " is stale: regenerate with gnnasim --benchmark "
        << gnn::benchmark_name(g.benchmark) << " --emit-program " << g.file;
  }
}

TEST(Ir, GoldenFilesRoundTripThroughLoadAndSave) {
  const std::string tmp = test::temp_path("resaved.gnna");
  for (const GoldenEntry& g : kGoldens) {
    const std::string path = golden_path(g.file);
    const CompiledProgram prog = ir::load_file(path);
    EXPECT_EQ(ir::serialize(prog), read_file(path)) << g.file;
    ir::save_file(prog, tmp);
    EXPECT_EQ(read_file(tmp), read_file(path)) << g.file;
  }
  std::remove(tmp.c_str());
}

TEST(Ir, ReloadedGoldenSimulatesBitIdentically) {
  // The pinned GCN/Cora golden: a program that went disk -> parse must
  // produce the exact cycle count the compiled program produces
  // (tests/accel/test_golden.cpp pins the same constant).
  const CompiledProgram prog = ir::load_file(golden_path("gcn_cora.gnna"));
  sim::Session& session = sim::Session::global();
  const auto ds = session.dataset(
      gnn::benchmark_dataset(gnn::Benchmark::kGcnCora), 2020);
  AcceleratorSim sim(AcceleratorConfig::cpu_iso_bw());
  EXPECT_EQ(sim.run(prog, *ds).cycles, 2871294U);
}

TEST(Ir, LoadFileRejectsMissingPath) {
  EXPECT_THROW((void)ir::load_file("/nonexistent/prog.gnna"),
               std::runtime_error);
}

}  // namespace
}  // namespace gnna::accel
