// Golden regression pins: exact cycle counts for one benchmark per model
// family on the CPU iso-BW configuration. These are the numbers
// EXPERIMENTS.md quotes; any change to the timing model shows up here
// first. Update the constants deliberately when the model changes.
#include <gtest/gtest.h>

#include "sim/session.hpp"

namespace gnna::accel {
namespace {

RunStats run_cpu_iso_bw(gnn::Benchmark benchmark) {
  sim::RunRequest req;
  req.benchmark = benchmark;
  req.config = AcceleratorConfig::cpu_iso_bw();
  return sim::Session::global().run(req);
}

TEST(Golden, GcnCoraCpuIsoBw) {
  const RunStats rs = run_cpu_iso_bw(gnn::Benchmark::kGcnCora);
  // Re-pinned when memory writes started occupying in-order queue slots
  // (previously 2871286: write completion was not part of idle()).
  EXPECT_EQ(rs.cycles, 2871294U);
  EXPECT_EQ(rs.tasks_completed, 2U * 2708U);
}

TEST(Golden, GatCoraCpuIsoBw) {
  const RunStats rs = run_cpu_iso_bw(gnn::Benchmark::kGatCora);
  // Re-pinned for the crossbar arbitration fixes: one flit per input per
  // cycle, and the round-robin pointer no longer rotates past an input
  // whose grant stalled on credits (previously 1775055). GCN/Cora above
  // is contention-light enough that its pin did not move.
  EXPECT_EQ(rs.cycles, 1775046U);
  // 18.39x over the paper's 13.60 ms CPU baseline (the headline claim).
  EXPECT_NEAR(13.60 / rs.millis, 18.39, 0.05);
}

}  // namespace
}  // namespace gnna::accel
