// BatchRunner invariants: parallel execution is bit-identical to serial,
// results come back in request order, and one failing run does not poison
// the rest of the batch.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "sim/batch_runner.hpp"
#include "sim/session.hpp"

namespace gnna::sim {
namespace {

std::vector<RunRequest> mixed_batch() {
  // Small workloads with distinguishable stats: two identical runs (cache
  // sharing + duplicate detection), a different benchmark, and knob
  // variations of the first.
  std::vector<RunRequest> reqs;
  RunRequest a;
  a.benchmark = gnn::Benchmark::kGatCora;
  reqs.push_back(a);
  reqs.push_back(a);
  RunRequest b;
  b.benchmark = gnn::Benchmark::kGcnCora;
  reqs.push_back(b);
  RunRequest c = a;
  c.clock_ghz = 1.2;
  reqs.push_back(c);
  RunRequest d = a;
  d.threads = 4;
  reqs.push_back(d);
  RunRequest e = a;
  e.seed = 7;
  reqs.push_back(e);
  return reqs;
}

void expect_same(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.tasks_completed, b.stats.tasks_completed);
  EXPECT_EQ(a.stats.mem_bytes_served, b.stats.mem_bytes_served);
  EXPECT_EQ(a.stats.noc_flit_hops, b.stats.noc_flit_hops);
  EXPECT_EQ(a.stats.dna_macs, b.stats.dna_macs);
  EXPECT_EQ(a.stats.gpe_actions, b.stats.gpe_actions);
  EXPECT_DOUBLE_EQ(a.stats.millis, b.stats.millis);
  ASSERT_EQ(a.stats.phases.size(), b.stats.phases.size());
  for (std::size_t i = 0; i < a.stats.phases.size(); ++i) {
    EXPECT_EQ(a.stats.phases[i].cycles, b.stats.phases[i].cycles);
  }
}

TEST(BatchRunner, ParallelMatchesSerialBitForBit) {
  const std::vector<RunRequest> reqs = mixed_batch();

  Session serial_session;
  BatchRunner serial(serial_session, 1);
  const std::vector<RunResult> expect = serial.run(reqs);

  Session parallel_session;
  BatchRunner parallel(parallel_session, 4);
  const std::vector<RunResult> got = parallel.run(reqs);

  ASSERT_EQ(expect.size(), reqs.size());
  ASSERT_EQ(got.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expect_same(expect[i], got[i]);
  }
  // Sanity: the batch actually contains distinct workloads, so a
  // results-shuffled-by-completion-order bug cannot pass silently.
  EXPECT_NE(expect[0].stats.cycles, expect[2].stats.cycles);
  EXPECT_NE(expect[0].stats.cycles, expect[3].stats.cycles);
}

TEST(BatchRunner, ResultsArriveInRequestOrder) {
  // Order the batch so the LAST request is the heaviest: with dynamic
  // dispatch it finishes last, so only slot-indexed writes (not
  // append-on-completion) keep the output aligned with the input.
  std::vector<RunRequest> reqs;
  RunRequest heavy;
  heavy.benchmark = gnn::Benchmark::kGcnCora;
  RunRequest light;
  light.benchmark = gnn::Benchmark::kGatCora;
  reqs.push_back(light);
  reqs.push_back(light);
  reqs.push_back(heavy);

  Session session;
  BatchRunner runner(session, 3);
  std::mutex mu;
  std::vector<std::size_t> completion;
  runner.set_progress([&](std::size_t i, const RunResult&) {
    const std::lock_guard<std::mutex> lock(mu);
    completion.push_back(i);
  });
  const std::vector<RunResult> results = runner.run(reqs);

  ASSERT_EQ(results.size(), 3U);
  EXPECT_EQ(completion.size(), 3U);
  for (const RunResult& r : results) ASSERT_TRUE(r.ok()) << r.error;
  // Identical light runs agree; the heavy run is a different workload.
  EXPECT_EQ(results[0].stats.cycles, results[1].stats.cycles);
  EXPECT_NE(results[0].stats.cycles, results[2].stats.cycles);
}

TEST(BatchRunner, FailedRunIsIsolated) {
  std::vector<RunRequest> reqs;
  RunRequest good;
  good.benchmark = gnn::Benchmark::kGatCora;
  RunRequest bad;  // no workload at all -> resolve() throws
  reqs.push_back(good);
  reqs.push_back(bad);
  reqs.push_back(good);

  Session session;
  BatchRunner runner(session, 2);
  const std::vector<RunResult> results = runner.run(reqs);

  ASSERT_EQ(results.size(), 3U);
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_TRUE(results[2].ok()) << results[2].error;
  EXPECT_EQ(results[0].stats.cycles, results[2].stats.cycles);
}

TEST(BatchRunner, WatchdogTripSurfacesAsError) {
  RunRequest req;
  req.benchmark = gnn::Benchmark::kGatCora;
  req.watchdog_cycles = 1;  // guaranteed to trip immediately

  Session session;
  BatchRunner runner(session, 1);
  const std::vector<RunResult> results = runner.run({req});
  ASSERT_EQ(results.size(), 1U);
  EXPECT_FALSE(results[0].ok());
}

TEST(BatchRunner, EmptyBatchAndJobClamping) {
  Session session;
  BatchRunner runner(session, 64);  // far more workers than work
  EXPECT_TRUE(runner.run({}).empty());

  RunRequest req;
  req.benchmark = gnn::Benchmark::kGatCora;
  const std::vector<RunResult> one = runner.run({req});
  ASSERT_EQ(one.size(), 1U);
  EXPECT_TRUE(one[0].ok()) << one[0].error;

  BatchRunner all_cores(session, 0);  // 0 = one per hardware thread
  EXPECT_GE(all_cores.jobs(), 1U);
}

TEST(BatchRunner, SharedSessionCachesAcrossBatch) {
  std::vector<RunRequest> reqs(4);
  for (RunRequest& r : reqs) r.benchmark = gnn::Benchmark::kGatCora;

  Session session;
  BatchRunner runner(session, 4);
  const std::vector<RunResult> results = runner.run(reqs);
  for (const RunResult& r : results) ASSERT_TRUE(r.ok()) << r.error;

  const Session::CacheCounters cc = session.cache_counters();
  // The dataset cache generates inside its lock: exactly one miss.
  EXPECT_EQ(cc.dataset_misses, 1U);
  // The compile is single-flight: one request compiles, the three
  // concurrent others wait on it and count as hits, none recompiles.
  EXPECT_EQ(cc.program_misses, 1U);
  EXPECT_EQ(cc.program_hits, 3U);
  EXPECT_EQ(cc.program_dedupes, 0U);
}

}  // namespace
}  // namespace gnna::sim
