// End-to-end profiler pinning on the golden GCN/Cora run:
//  - enabling --profile must not change a single cycle (the markers and
//    the Profiler sink are pure observation);
//  - the per-phase spans conserve cycles (they tile the run exactly);
//  - the profile's task count matches the simulator's own counter;
//  - the stats_json embedding is schema-versioned and round-trips through
//    the sim::json reader gnnatrace uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "mem/memory.hpp"
#include "sim/json.hpp"
#include "sim/session.hpp"
#include "sim/stats_json.hpp"
#include "trace/profiler.hpp"

namespace gnna::sim {
namespace {

// Pinned in tests/accel/test_golden.cpp; duplicated here so a profiling
// side effect on timing shows up as a loud diff against the same number.
constexpr Cycle kGcnCoraGoldenCycles = 2871294;

accel::RunStats run_gcn_cora(bool profile) {
  RunRequest req;
  req.benchmark = gnn::Benchmark::kGcnCora;
  req.trace.profile = profile;
  return Session::global().run(req);
}

TEST(ProfileIntegration, ProfilingIsZeroCostAndConservesCycles) {
  const accel::RunStats off = run_gcn_cora(false);
  const accel::RunStats on = run_gcn_cora(true);

  // Markers + profiler sink must not perturb the timing model.
  EXPECT_EQ(off.cycles, kGcnCoraGoldenCycles);
  EXPECT_EQ(on.cycles, kGcnCoraGoldenCycles);
  EXPECT_EQ(on.tasks_completed, off.tasks_completed);
  EXPECT_EQ(on.mem_bytes_served, off.mem_bytes_served);
  EXPECT_EQ(on.packets_delivered, off.packets_delivered);

  EXPECT_EQ(off.profile, nullptr);
  ASSERT_NE(on.profile, nullptr);
  const trace::ProfileReport& pr = *on.profile;

  // Conservation: the phase spans tile the run, nothing lands outside.
  ASSERT_EQ(pr.phases.size(), on.phases.size());
  EXPECT_DOUBLE_EQ(pr.total_cycles(), static_cast<double>(on.cycles));
  std::uint64_t tasks = 0;
  for (std::size_t i = 0; i < pr.phases.size(); ++i) {
    EXPECT_EQ(pr.phases[i].name, on.phases[i].name);
    EXPECT_DOUBLE_EQ(pr.phases[i].cycles(),
                     static_cast<double>(on.phases[i].cycles));
    tasks += pr.phases[i].tasks;
  }
  EXPECT_EQ(tasks, on.tasks_completed);
  EXPECT_GT(pr.busy_total(trace::Category::kMem), 0.0);
  EXPECT_GT(pr.busy_total(trace::Category::kGpe), 0.0);

  // The GPE flame: sub-spans tile each task exactly, so "task" keeps no
  // self time and the rollup conserves the task total.
  const auto flame = pr.merged_flame();
  double task_total = 0.0;
  double children_total = 0.0;
  for (const auto& n : flame) {
    if (n.path == "task") {
      task_total = n.total;
      EXPECT_EQ(n.count, on.tasks_completed);
    } else {
      children_total += n.total;
    }
  }
  EXPECT_GT(task_total, 0.0);
  EXPECT_NEAR(task_total, children_total, 1e-6 * task_total);
}

TEST(ProfileIntegration, StatsJsonEmbedsVersionedProfileThatRoundTrips) {
  const accel::RunStats rs = run_gcn_cora(true);
  std::ostringstream os;
  write_run_stats_json(os, rs);

  const json::Value doc = json::Value::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("schema_version")->as_number(),
                   kStatsJsonSchemaVersion);
  const json::Value* prof = doc.find("profile");
  ASSERT_NE(prof, nullptr);
  EXPECT_DOUBLE_EQ(prof->find("version")->as_number(),
                   trace::kProfileSchemaVersion);

  const json::Value* phases = prof->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->size(), rs.profile->phases.size());
  double span_sum = 0.0;
  for (const json::Value& p : phases->items()) {
    span_sum += p.find("cycles")->as_number();
    const json::Value* busy = p.find("busy");
    ASSERT_NE(busy, nullptr);
    EXPECT_GT(busy->find("mem")->as_number(), 0.0);
    ASSERT_NE(p.find("flame"), nullptr);
    ASSERT_NE(p.find("units"), nullptr);
  }
  EXPECT_DOUBLE_EQ(span_sum, static_cast<double>(rs.cycles));

  // Runs without profiling stay profile-free but keep the version field.
  const accel::RunStats plain = run_gcn_cora(false);
  std::ostringstream os2;
  write_run_stats_json(os2, plain);
  const json::Value doc2 = json::Value::parse(os2.str());
  EXPECT_DOUBLE_EQ(doc2.find("schema_version")->as_number(),
                   kStatsJsonSchemaVersion);
  EXPECT_EQ(doc2.find("profile"), nullptr);
}

TEST(ProfileIntegration, FrfcfsRunEmitsSchemaV3MemFields) {
  RunRequest req;
  req.benchmark = gnn::Benchmark::kGcnCora;
  req.config = accel::AcceleratorConfig::cpu_iso_bw();
  req.config.mem_params.scheduler = mem::MemScheduler::kFrFcfs;
  const accel::RunStats rs = Session::global().run(req);

  EXPECT_EQ(rs.mem_scheduler, "frfcfs");
  EXPECT_GT(rs.mem_row_hits, 0U);
  EXPECT_GT(rs.mem_row_misses, 0U);
  EXPECT_GT(rs.mem_row_hit_rate, 0.0);
  EXPECT_LT(rs.mem_row_hit_rate, 1.0);
  ASSERT_FALSE(rs.mem_banks.empty());
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& b : rs.mem_banks) {
    EXPECT_LT(b.bank, rs.mem_banks.size());
    EXPECT_GE(b.busy_frac, 0.0);
    EXPECT_LE(b.busy_frac, 1.0);
    hits += b.row_hits;
    misses += b.row_misses;
  }
  EXPECT_EQ(hits, rs.mem_row_hits);
  EXPECT_EQ(misses, rs.mem_row_misses);

  std::ostringstream os;
  write_run_stats_json(os, rs);
  const json::Value doc = json::Value::parse(os.str());
  EXPECT_GE(doc.find("schema_version")->as_number(), 3.0);
  EXPECT_EQ(doc.find("mem_scheduler")->as_string(), "frfcfs");
  EXPECT_GT(doc.find("mem_row_hit_rate")->as_number(), 0.0);
  EXPECT_GT(doc.find("mem_queue_occupancy")->as_number(), 0.0);
  const json::Value* banks = doc.find("mem_banks");
  ASSERT_NE(banks, nullptr);
  ASSERT_EQ(banks->size(), rs.mem_banks.size());
  for (const json::Value& b : banks->items()) {
    EXPECT_GE(b.find("busy_frac")->as_number(), 0.0);
  }

  // The default in-order scheduler reports its name and an empty bank
  // array (the field is always present so consumers need no existence
  // check).
  const accel::RunStats plain = run_gcn_cora(false);
  EXPECT_EQ(plain.mem_scheduler, "in_order");
  EXPECT_TRUE(plain.mem_banks.empty());
  std::ostringstream os2;
  write_run_stats_json(os2, plain);
  const json::Value doc2 = json::Value::parse(os2.str());
  const json::Value* banks2 = doc2.find("mem_banks");
  ASSERT_NE(banks2, nullptr);
  EXPECT_EQ(banks2->size(), 0U);
}

}  // namespace
}  // namespace gnna::sim
