#include "accel/dna.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

namespace gnna::accel {
namespace {

struct Rig {
  noc::MeshNetwork net{1, 1};
  EndpointId dna_ep;
  EndpointId sink;
  AddressMap amap{{0}, 4096};
  Dnq dnq{TileParams{}};
  std::optional<Dna> dna;

  explicit Rig(TileParams params = TileParams{}, ClockRatio ratio = {}) {
    dna_ep = net.add_endpoint(0, 0);
    sink = net.add_endpoint(0, 0);
    const EndpointId mem = net.add_endpoint(0, 0);
    net.finalize();
    amap = AddressMap({mem}, 4096);
    dna.emplace(params, net, dna_ep, amap, ratio, dnq);
  }

  Dest to_sink() {
    Dest d;
    d.kind = Dest::Kind::kAggEntry;
    d.ep = sink;
    d.handle = 5;
    return d;
  }

  DnqHandle ready_entry(std::uint8_t queue, std::uint32_t words) {
    const auto h = dnq.allocate(queue, words, to_sink());
    EXPECT_TRUE(h.has_value());
    noc::Message m;
    m.kind = noc::MsgKind::kDnqWrite;
    m.a = *h;
    m.payload_bytes = words * 4;
    dnq.on_message(m);
    return *h;
  }

  std::vector<noc::Message> run(Cycle cycles) {
    std::vector<noc::Message> out;
    for (Cycle c = 0; c < cycles; ++c) {
      dna->tick();
      net.tick();
      while (auto m = net.poll(sink)) out.push_back(*m);
    }
    return out;
  }
};

TEST(Dna, ProcessesEntryAndEmitsResult) {
  Rig rig;
  rig.dna->configure({{10, 16}}, 0);
  rig.ready_entry(0, 8);
  const auto out = rig.run(200);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].kind, noc::MsgKind::kAggWrite);
  EXPECT_EQ(out[0].a, 5U);
  EXPECT_EQ(out[0].payload_bytes, 64U);  // 16 words
  EXPECT_EQ(rig.dna->stats().entries_processed.value(), 1U);
  EXPECT_TRUE(rig.dna->idle());
}

TEST(Dna, WaitsForWeightsBeforeProcessing) {
  Rig rig;
  rig.dna->configure({{4, 4}}, /*weight_bytes=*/1024);
  rig.ready_entry(0, 4);
  EXPECT_TRUE(rig.run(100).empty());
  EXPECT_FALSE(rig.dna->idle());
  rig.dna->on_weight_data(512);
  EXPECT_TRUE(rig.run(50).empty());  // still half missing
  rig.dna->on_weight_data(512);
  EXPECT_EQ(rig.run(200).size(), 1U);
}

TEST(Dna, InitiationIntervalPacesThroughput) {
  TileParams p;
  p.dna_min_ii = 4;
  p.dna_pipeline_latency = 0;
  Rig rig(p);
  rig.dna->configure({{50, 1}}, 0);
  for (int i = 0; i < 5; ++i) rig.ready_entry(0, 1);
  Cycle start = rig.net.now();
  const auto out = rig.run(1000);
  ASSERT_EQ(out.size(), 5U);
  // 5 entries at II=50 => at least 250 cycles of array time.
  EXPECT_GE(rig.net.now() - start, 250U);
  EXPECT_NEAR(rig.dna->stats().busy_time, 250.0, 1.0);
}

TEST(Dna, MinIiFloorApplies) {
  TileParams p;
  p.dna_min_ii = 8;
  Rig rig(p);
  rig.dna->configure({{1, 1}}, 0);  // model faster than the floor
  for (int i = 0; i < 4; ++i) rig.ready_entry(0, 1);
  rig.run(500);
  EXPECT_NEAR(rig.dna->stats().busy_time, 32.0, 1.0);
}

TEST(Dna, WideEntryReadoutDominatesTinyModel) {
  TileParams p;
  p.dna_min_ii = 1;
  Rig rig(p);
  rig.dna->configure({{1, 1}}, 0);
  rig.ready_entry(0, 512);  // 32 flits of readout at 16 words/cycle
  rig.run(200);
  EXPECT_NEAR(rig.dna->stats().busy_time, 32.0, 1.0);
}

TEST(Dna, PipelineLatencyDelaysResultNotThroughput) {
  TileParams p;
  p.dna_min_ii = 4;
  p.dna_pipeline_latency = 100;
  Rig rig(p);
  rig.dna->configure({{4, 1}}, 0);
  rig.ready_entry(0, 1);
  const auto out = rig.run(300);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_GE(out[0].delivered_at, 104U);
}

TEST(Dna, TwoModelsViaVirtualQueues) {
  TileParams p;
  p.dnq_idle_switch_cycles = 2;
  Rig rig(p);
  rig.dnq = Dnq{p};
  rig.dnq.configure(31 * 1024, 31 * 1024);
  rig.dna->configure({{4, 2}, {4, 7}}, 0);
  rig.ready_entry(0, 4);
  rig.ready_entry(1, 4);
  const auto out = rig.run(500);
  ASSERT_EQ(out.size(), 2U);
  // Queue 0's model emits 2 words, queue 1's 7 words.
  EXPECT_EQ(out[0].payload_bytes, 8U);
  EXPECT_EQ(out[1].payload_bytes, 28U);
}

// The DNA lets the DNQ switch to the other queue's ready head only once
// it has sat idle for dnq_idle_switch_cycles (16) core cycles: at 2.4 GHz
// not after 10 or 15 idle cycles but at 16; at 1.8 GHz (4/3 NoC cycles per
// core cycle) at NoC cycle 22, the first at or past 64/3.
TEST(Dna, LazySwitchWaitsForIdleThreshold) {
  for (const auto& [ratio, switch_at] :
       {std::pair{ClockRatio{1, 1}, Cycle{16}},
        std::pair{ClockRatio{4, 3}, Cycle{22}}}) {
    SCOPED_TRACE(std::to_string(ratio.p) + "/" + std::to_string(ratio.q));
    Rig rig(TileParams{}, ratio);
    rig.dnq.configure(31 * 1024, 31 * 1024);
    rig.dna->configure({{4, 2}, {4, 7}}, 0);  // idle from cycle 0
    rig.ready_entry(1, 1);  // only queue 1, not the active 0, is ready
    if (switch_at == 16) {
      rig.run(11);  // ticks through 10 idle cycles
      EXPECT_EQ(rig.dnq.stats().queue_switches.value(), 0U);
    }
    rig.run(switch_at - rig.net.now());  // ticks through switch_at - 1
    EXPECT_EQ(rig.dnq.active_queue(), 0);
    EXPECT_EQ(rig.dnq.stats().queue_switches.value(), 0U);
    rig.run(1);  // the tick at switch_at
    EXPECT_EQ(rig.dnq.active_queue(), 1);
    EXPECT_EQ(rig.dnq.stats().queue_switches.value(), 1U);
    EXPECT_EQ(rig.dna->stats().entries_processed.value(), 1U);
  }
}

TEST(Dna, ResultToMemoryDest) {
  Rig rig;
  rig.dna->configure({{4, 16}}, 0);
  Dest d;
  d.kind = Dest::Kind::kMemWrite;
  d.addr = 0x200;
  const auto h = rig.dnq.allocate(0, 4, d);
  noc::Message m;
  m.kind = noc::MsgKind::kDnqWrite;
  m.a = *h;
  m.payload_bytes = 16;
  rig.dnq.on_message(m);
  std::vector<noc::Message> mem_msgs;
  for (Cycle c = 0; c < 300; ++c) {
    rig.dna->tick();
    rig.net.tick();
    while (auto got = rig.net.poll(2)) mem_msgs.push_back(*got);
  }
  ASSERT_EQ(mem_msgs.size(), 1U);
  EXPECT_EQ(mem_msgs[0].kind, noc::MsgKind::kMemWriteReq);
  EXPECT_EQ(mem_msgs[0].a, 0x200U);
}

TEST(Dna, CoreClockScaleStretchesBusyTime) {
  Rig rig(TileParams{}, ClockRatio{2, 1});
  rig.dna->configure({{10, 1}}, 0);
  rig.ready_entry(0, 1);
  rig.run(200);
  EXPECT_NEAR(rig.dna->stats().busy_time, 20.0, 1.0);
}

}  // namespace
}  // namespace gnna::accel
