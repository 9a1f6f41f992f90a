// Manifest parsing for `gnnasim --batch`: valid files expand to the right
// requests, and every malformed line is rejected with the source name and
// line number in the message.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/manifest.hpp"

namespace gnna::sim {
namespace {

std::vector<RunRequest> parse(const std::string& text,
                              RunRequest defaults = {}) {
  std::istringstream in(text);
  return parse_batch_manifest(in, defaults, "runs.txt");
}

std::string parse_error(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Manifest, StrictNumberParsers) {
  EXPECT_EQ(parse_u64("42"), 42U);
  EXPECT_EQ(parse_u64("0"), 0U);
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("12abc").has_value());
  EXPECT_FALSE(parse_u64("-3").has_value());
  EXPECT_FALSE(parse_u64("1.5").has_value());
  EXPECT_FALSE(parse_u64(" 7").has_value());

  EXPECT_DOUBLE_EQ(parse_f64("2.4").value(), 2.4);
  EXPECT_DOUBLE_EQ(parse_f64("1").value(), 1.0);
  EXPECT_FALSE(parse_f64("").has_value());
  EXPECT_FALSE(parse_f64("1.2x").has_value());
  EXPECT_FALSE(parse_f64("nan").has_value());
}

TEST(Manifest, NameLookups) {
  EXPECT_EQ(benchmark_by_name("GCN/Cora"), gnn::Benchmark::kGcnCora);
  EXPECT_EQ(benchmark_by_name("PGNN/DBLP_1"), gnn::Benchmark::kPgnnDblp);
  EXPECT_FALSE(benchmark_by_name("GCN/Mars").has_value());

  EXPECT_TRUE(config_by_name("cpu-iso-bw").has_value());
  EXPECT_TRUE(config_by_name("gpu-iso-bw").has_value());
  EXPECT_TRUE(config_by_name("gpu-iso-flops").has_value());
  EXPECT_FALSE(config_by_name("tpu").has_value());

  EXPECT_EQ(partition_by_name("round-robin"),
            graph::PartitionPolicy::kRoundRobin);
  EXPECT_EQ(partition_by_name("block"), graph::PartitionPolicy::kBlock);
  EXPECT_EQ(partition_by_name("degree-greedy"),
            graph::PartitionPolicy::kDegreeGreedy);
  EXPECT_EQ(partition_by_name("profile-guided"),
            graph::PartitionPolicy::kProfileGuided);
  EXPECT_FALSE(partition_by_name("hash").has_value());
}

TEST(Manifest, AttributionKeys) {
  const auto reqs = parse(
      "benchmark=GCN/Cora attribution=1\n"
      "benchmark=GCN/Cora partition=profile-guided "
      "attribution_from=p1.json\n"
      "benchmark=GCN/Cora attribution=0\n");
  ASSERT_EQ(reqs.size(), 3U);
  EXPECT_TRUE(reqs[0].trace.attribution);
  EXPECT_TRUE(reqs[0].attribution_from.empty());
  EXPECT_FALSE(reqs[1].trace.attribution);
  EXPECT_EQ(reqs[1].partition, graph::PartitionPolicy::kProfileGuided);
  EXPECT_EQ(reqs[1].attribution_from, "p1.json");
  EXPECT_FALSE(reqs[2].trace.attribution);
}

TEST(Manifest, RejectsMalformedAttributionValues) {
  EXPECT_NE(parse_error("benchmark=GCN/Cora attribution=yes\n")
                .find("attribution must be 0 or 1"),
            std::string::npos);
  EXPECT_NE(parse_error("benchmark=GCN/Cora attribution_from=\n")
                .find("attribution_from needs a file path"),
            std::string::npos);
}

TEST(Manifest, ParsesRunsWithCommentsAndBlankLines) {
  const auto reqs = parse(
      "# nightly sweep\n"
      "\n"
      "benchmark=GCN/Cora\n"
      "  benchmark=GAT/Cora config=gpu-iso-bw clock=1.2 threads=32 "
      "partition=block seed=7\n"
      "\n"
      "# trailing comment\n");
  ASSERT_EQ(reqs.size(), 2U);

  EXPECT_EQ(reqs[0].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_FALSE(reqs[0].clock_ghz.has_value());
  EXPECT_FALSE(reqs[0].threads.has_value());
  EXPECT_EQ(reqs[0].seed, 2020U);
  EXPECT_EQ(reqs[0].partition, graph::PartitionPolicy::kRoundRobin);

  EXPECT_EQ(reqs[1].benchmark, gnn::Benchmark::kGatCora);
  ASSERT_TRUE(reqs[1].clock_ghz.has_value());
  EXPECT_DOUBLE_EQ(*reqs[1].clock_ghz, 1.2);
  EXPECT_EQ(reqs[1].threads, 32U);
  EXPECT_EQ(reqs[1].seed, 7U);
  EXPECT_EQ(reqs[1].partition, graph::PartitionPolicy::kBlock);
}

TEST(Manifest, DefaultsFlowIntoUnsetKeys) {
  RunRequest defaults;
  defaults.clock_ghz = 1.0;
  defaults.threads = 8;
  defaults.seed = 13;
  const auto reqs = parse(
      "benchmark=GCN/Cora\n"
      "benchmark=GCN/Cora clock=2.4 seed=99\n",
      defaults);
  ASSERT_EQ(reqs.size(), 2U);
  EXPECT_DOUBLE_EQ(*reqs[0].clock_ghz, 1.0);
  EXPECT_EQ(reqs[0].threads, 8U);
  EXPECT_EQ(reqs[0].seed, 13U);
  // Per-line keys override the defaults without disturbing other keys.
  EXPECT_DOUBLE_EQ(*reqs[1].clock_ghz, 2.4);
  EXPECT_EQ(reqs[1].threads, 8U);
  EXPECT_EQ(reqs[1].seed, 99U);
}

TEST(Manifest, RepeatExpandsIntoIdenticalRuns) {
  const auto reqs = parse(
      "benchmark=GCN/Cora repeat=3\n"
      "benchmark=GAT/Cora\n");
  ASSERT_EQ(reqs.size(), 4U);
  EXPECT_EQ(reqs[0].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_EQ(reqs[1].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_EQ(reqs[2].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_EQ(reqs[3].benchmark, gnn::Benchmark::kGatCora);
}

TEST(Manifest, ErrorsCarrySourceAndLineNumber) {
  EXPECT_NE(parse_error("benchmark=GCN/Cora\nbenchmark=GCN/Mars\n")
                .find("runs.txt:2"),
            std::string::npos);
  EXPECT_NE(parse_error("flux=9\n").find("runs.txt:1"), std::string::npos);
}

TEST(Manifest, RejectsUnknownKey) {
  const std::string msg = parse_error("benchmark=GCN/Cora flux=9\n");
  EXPECT_NE(msg.find("flux"), std::string::npos);
}

TEST(Manifest, RejectsMissingBenchmark) {
  EXPECT_FALSE(parse_error("clock=1.2\n").empty());
}

TEST(Manifest, RejectsMalformedValues) {
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora seed=abc\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora clock=fast\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora clock=0\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora clock=9.9\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora threads=0\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora threads=-4\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora repeat=0\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora config=tpu\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora partition=hash\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora benchmark\n").empty());
}

TEST(Manifest, ConfigOverridesApplyWhateverTheTokenOrder) {
  // mem_* and tile_* tokens override the line's config even when they
  // come before `config=`, which would otherwise replace them.
  const auto reqs = parse(
      "benchmark=GCN/Cora mem_banks=4 tile_dnq_data_bytes=4096 "
      "config=gpu-iso-bw\n"
      "benchmark=GCN/Cora config=gpu-iso-bw mem_banks=4 "
      "tile_dnq_data_bytes=4096\n");
  ASSERT_EQ(reqs.size(), 2U);
  for (const RunRequest& r : reqs) {
    EXPECT_EQ(r.config.name, accel::AcceleratorConfig::gpu_iso_bw().name);
    EXPECT_EQ(r.config.mem_params.banks, 4U);
    EXPECT_EQ(r.config.tile_params.dnq_data_bytes, 4096U);
  }
  EXPECT_EQ(describe(reqs[0]), describe(reqs[1]));
  EXPECT_EQ(describe(reqs[0]),
            "benchmark=GCN/Cora config=gpu-iso-bw mem_banks=4 "
            "tile_dnq_data_bytes=4096");
}

TEST(Manifest, PerRunPathsNumberEveryOutputFile) {
  accel::TraceOptions t;
  t.trace_path = "out/t.json";
  t.sample_path = "runs.d/samples";
  per_run_paths(t, 3);
  EXPECT_EQ(t.trace_path, "out/t.run3.json");
  EXPECT_EQ(t.sample_path, "runs.d/samples.run3");
  EXPECT_EQ(t.deadlock_report_path, "");
}

TEST(Manifest, EmptyManifestYieldsNoRuns) {
  EXPECT_TRUE(parse("").empty());
  EXPECT_TRUE(parse("# only comments\n\n").empty());
}

}  // namespace
}  // namespace gnna::sim
