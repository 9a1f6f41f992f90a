// read_stats_json: the one reader of the stats JSON, and the exact inverse
// of write_batch_json. gnnatrace reads runs through it, and
// profile-guided partitioning reads its loads through read_attribution.
#include "sim/stats_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/session.hpp"
#include "temp_path.hpp"

namespace gnna::sim {
namespace {

/// Writes `text` to a temp file for the duration of the test.
class TempJson {
 public:
  explicit TempJson(const std::string& text)
      : path_(test::temp_path(std::to_string(counter_++) + ".json")) {
    std::ofstream out(path_);
    out << text;
  }
  ~TempJson() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TempJson::counter_ = 0;

std::string batch_text(const std::vector<RunResult>& results) {
  std::ostringstream os;
  write_batch_json(os, results);
  return os.str();
}

/// The diagnostic read_stats_json throws for `text` ("" if none).
std::string rejection(const std::string& text) {
  const TempJson f(text);
  try {
    (void)read_stats_json(f.path());
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(f.path() + ": ", 0), 0U) << what;
    return what.substr(f.path().size() + 2);
  }
  return "";
}

// An older file: "top_k" and the per-vertex "approx" flags are no longer
// written, and readers ignore them.
constexpr const char* kRunWithAttribution = R"({
  "schema_version": 5,
  "cycles": 1000,
  "attribution": {
    "version": 1, "top_k": 4, "span": 1000, "total_busy": 60,
    "busy_max_mean": 1.3333333333333333, "flit_gini": 0.1,
    "unattributed_flits": 2,
    "tiles": [
      {"tile": 0, "busy": 40}, {"tile": 1, "busy": 20}
    ],
    "vertices": [
      {"vertex": 7, "busy": 30.0, "approx": false},
      {"vertex": 2, "busy": 20.0, "approx": false},
      {"vertex": 9, "busy": 10.0, "approx": true}
    ]
  }
})";

TEST(AttributionIo, LoadsSingleRunObject) {
  const TempJson f(kRunWithAttribution);
  const auto ar = read_attribution(f.path());
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->tiles.size(), 2U);
  EXPECT_EQ(ar->unattributed_flits, 2U);
  EXPECT_DOUBLE_EQ(ar->busy_max_mean(), 40.0 / 30.0);
  // Dense over the run's vertices; untabled vertices stay 0.
  const std::vector<double> loads = ar->vertex_busy(12);
  ASSERT_EQ(loads.size(), 12U);
  EXPECT_DOUBLE_EQ(loads[7], 30.0);
  EXPECT_DOUBLE_EQ(loads[2], 20.0);
  EXPECT_DOUBLE_EQ(loads[9], 10.0);
  EXPECT_DOUBLE_EQ(loads[0], 0.0);
}

TEST(AttributionIo, FindsFirstAttributedRunInBatchArray) {
  const TempJson f(std::string("[{\"error\": \"boom\"}, {\"cycles\": 5}, ") +
                   kRunWithAttribution + "]");
  const auto ar = read_attribution(f.path());
  EXPECT_EQ(ar->tiles.size(), 2U);
  EXPECT_DOUBLE_EQ(ar->vertex_busy(10)[7], 30.0);
  EXPECT_THROW((void)ar->vertex_busy(9), std::invalid_argument);
}

TEST(AttributionIo, MissingBlockThrowsWithHint) {
  const TempJson f(R"({"schema_version": 5, "cycles": 1000})");
  try {
    (void)read_attribution(f.path());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--attribution"),
              std::string::npos);
  }
}

TEST(AttributionIo, UnreadableFileThrows) {
  EXPECT_THROW((void)read_attribution("/nonexistent/attr.json"),
               std::runtime_error);
}

TEST(AttributionIo, RejectsMalformedVertexRows) {
  // Each of these used to be skipped or wrapped around silently.
  const auto vertices = [](const std::string& row) {
    return R"({"attribution": {"tiles": [], "vertices": [{"vertex": 1, )"
           R"("busy": 7.0}, )" +
           row + "]}}";
  };
  EXPECT_EQ(rejection(vertices(R"({"vertex": -1, "busy": 5.0})")),
            "run 0: attribution.vertices[1]: \"vertex\" must be an integer "
            "in [0, 4294967295], got -1");
  EXPECT_EQ(rejection(vertices(R"({"vertex": 5e12})")),
            "run 0: attribution.vertices[1]: \"vertex\" must be an integer "
            "in [0, 4294967295], got 5e+12");
  EXPECT_EQ(rejection(vertices(R"({"vertex": 2.5})")),
            "run 0: attribution.vertices[1]: \"vertex\" must be an integer "
            "in [0, 4294967295], got 2.5");
  EXPECT_EQ(rejection(vertices(R"({"busy": 3.0})")),
            "run 0: attribution.vertices[1]: row has no \"vertex\"");
  EXPECT_EQ(rejection(vertices(R"("not-an-object")")),
            "run 0: attribution.vertices[1]: not an object");
  EXPECT_EQ(rejection(vertices(R"({"vertex": 3, "tasks": -3})")),
            "run 0: attribution.vertices[1]: \"tasks\" must be an integer "
            "in [0, 18446744073709551615], got -3");
  EXPECT_EQ(rejection(vertices(R"({"vertex": 3, "busy": "lots"})")),
            "run 0: attribution.vertices[1]: \"busy\" must be a number");
}

TEST(StatsJson, RejectsMalformedRows) {
  EXPECT_EQ(rejection("[{}, 1]"), "run 1: not an object");
  EXPECT_EQ(rejection(R"({"config": 3})"),
            "run 0: \"config\" must be a string");
  EXPECT_EQ(rejection(R"({"cycles": "many"})"),
            "run 0: \"cycles\" must be an integer in [0, "
            "18446744073709551615], got a non-number");
  EXPECT_EQ(rejection(R"({"phases": {}})"),
            "run 0: \"phases\" must be an array");
  EXPECT_EQ(rejection(R"({"phases": [{"cycles": 5}]})"),
            "run 0: phases[0]: row has no \"name\"");
  EXPECT_EQ(rejection(R"({"mem_banks": [{"mem": 0, "bank": 4294967296}]})"),
            "run 0: mem_banks[0]: \"bank\" must be an integer in [0, "
            "4294967295], got 4294967296");
  EXPECT_EQ(rejection(R"({"program_hash": "3c9e"})"),
            "run 0: \"program_hash\" must be 16 hex digits, got \"3c9e\"");
  EXPECT_EQ(rejection(R"({"error": ""})"), "run 0: \"error\" is empty");
  EXPECT_EQ(
      rejection(R"({"profile": {"phases": [{"name": "a", "busy": {"gpu": 1}}]}})"),
      "run 0: profile.phases[0].busy: unknown unit category \"gpu\"");
  EXPECT_EQ(rejection(R"({"profile": {"phases": [{"name": "a", "units": )"
                      R"([{"cat": "gpe"}]}]}})"),
            "run 0: profile.phases[0].units[0]: row has no \"unit\"");
  EXPECT_EQ(rejection(R"({"attribution": {"tiles": [{"tile": 1}]}})"),
            "run 0: attribution.tiles[0]: \"tile\" is 1");
  EXPECT_EQ(rejection(R"({"static_model": {"phases": [{"name": "a", )"
                      R"("bottleneck": "disk"}]}})"),
            "run 0: static_model.phases[0]: unknown \"bottleneck\" \"disk\"");
  EXPECT_NE(rejection("{\"cycles\": 1").find("json: "), std::string::npos);
}

TEST(StatsJson, NullDoubleIsTheWritersNonFinite) {
  const TempJson f(R"({"mem_row_hit_rate": null})");
  const std::vector<RunResult> runs = read_stats_json(f.path());
  ASSERT_EQ(runs.size(), 1U);
  EXPECT_TRUE(std::isnan(runs[0].stats.mem_row_hit_rate));
  std::ostringstream os;
  write_run_stats_json(os, runs[0].stats);
  EXPECT_NE(os.str().find("\"mem_row_hit_rate\": null"), std::string::npos);
}

TEST(StatsJson, ReadsOlderSchemaVersions) {
  const std::string data = std::string(GNNA_SOURCE_DIR) + "/tests/data/";
  const auto one = [&](const char* file) {
    std::vector<RunResult> runs = read_stats_json(data + file);
    EXPECT_EQ(runs.size(), 1U);
    EXPECT_TRUE(runs.at(0).ok());
    return runs.at(0).stats;
  };
  const accel::RunStats v2 = one("baseline_gcn_cora.json");
  EXPECT_EQ(v2.cycles, 2871294U);
  EXPECT_TRUE(v2.mem_scheduler.empty());  // added in v3
  ASSERT_NE(v2.profile, nullptr);
  EXPECT_DOUBLE_EQ(v2.profile->total_cycles(), 2871294.0);

  const accel::RunStats v3 = one("baseline_gcn_cora_frfcfs.json");
  EXPECT_EQ(v3.mem_scheduler, "frfcfs");
  EXPECT_FALSE(v3.mem_banks.empty());
  EXPECT_EQ(v3.program_cache, "");  // added in v4

  const accel::RunStats v5 = one("baseline_gcn_cora_attr.json");
  EXPECT_EQ(v5.program_hash, 0x3c9ec1984b5911ccU);
  ASSERT_NE(v5.attribution, nullptr);
  EXPECT_EQ(v5.attribution->tiles.size(), 8U);
  EXPECT_EQ(v5.static_model, nullptr);  // added in v6

  for (const char* f : {"profile_a.json", "profile_b.json", "profile_c.json",
                        "attr_a.json", "attr_b.json"}) {
    (void)one(f);
  }
}

TEST(StatsJson, RoundTripsRealRunsByteForByte) {
  Session session;
  std::vector<RunResult> results;
  const auto run = [&](RunRequest req) {
    RunResult r;
    r.stats = session.run(req);
    results.push_back(r);
  };
  RunRequest observed;  // every optional block: profile, attribution
  observed.benchmark = gnn::Benchmark::kGcnCora;
  observed.config = accel::AcceleratorConfig::gpu_iso_bw();
  observed.trace.profile = true;
  observed.trace.attribution = true;
  run(observed);
  RunRequest frfcfs;  // mem_banks
  frfcfs.benchmark = gnn::Benchmark::kGatCora;
  frfcfs.config.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  run(frfcfs);
  RunRequest optimized;  // optimized_from
  optimized.benchmark = gnn::Benchmark::kGatCora;
  optimized.optimize = true;
  run(optimized);
  results.push_back({accel::RunStats{}, "watchdog: no progress \"quoted\""});

  ASSERT_FALSE(results[1].stats.mem_banks.empty());
  ASSERT_NE(results[2].stats.optimized_from, 0U);
  const std::string text = batch_text(results);
  const TempJson f(text);
  const std::vector<RunResult> back = read_stats_json(f.path());
  ASSERT_EQ(back.size(), results.size());
  EXPECT_EQ(batch_text(back), text);
  EXPECT_EQ(back[3].error, results[3].error);

  // A single run object reads as a batch of one.
  std::ostringstream single;
  write_run_stats_json(single, results[0].stats);
  const TempJson g(single.str() + "\n");
  const std::vector<RunResult> one = read_stats_json(g.path());
  ASSERT_EQ(one.size(), 1U);
  std::ostringstream again;
  write_run_stats_json(again, one[0].stats);
  EXPECT_EQ(again.str(), single.str());
}

}  // namespace
}  // namespace gnna::sim
