#include "accel/agg.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gnna::accel {
namespace {

struct Rig {
  noc::MeshNetwork net{1, 1};
  EndpointId agg_ep;
  EndpointId sink;  // where results land
  AddressMap amap{{0}, 4096};  // placeholder; rebuilt below
  std::optional<Agg> agg;

  explicit Rig(TileParams params = TileParams{}, ClockRatio ratio = {}) {
    agg_ep = net.add_endpoint(0, 0);
    sink = net.add_endpoint(0, 0);
    const EndpointId mem = net.add_endpoint(0, 0);
    net.finalize();
    amap = AddressMap({mem}, 4096);
    agg.emplace(params, net, agg_ep, amap, ratio);
  }

  Dest to_sink() {
    Dest d;
    d.kind = Dest::Kind::kDnqEntry;
    d.ep = sink;
    d.handle = 99;
    return d;
  }

  /// Deliver a timing-only contribution of `words` to handle `h`.
  void contribute(AggHandle h, std::uint32_t words) {
    noc::Message m;
    m.src = sink;
    m.dst = agg_ep;
    m.kind = noc::MsgKind::kAggWrite;
    m.payload_bytes = words * 4;
    m.a = h;
    net.send(m);
  }

  std::vector<noc::Message> run(Cycle cycles) {
    std::vector<noc::Message> out;
    for (Cycle c = 0; c < cycles; ++c) {
      agg->tick();
      net.tick();
      while (auto m = net.poll(sink)) out.push_back(*m);
    }
    return out;
  }
};

TEST(Agg, AllocateAndComplete) {
  Rig rig;
  const auto h = rig.agg->allocate(4, 8, ReduceOp::kSum, rig.to_sink());
  ASSERT_TRUE(h.has_value());
  rig.contribute(*h, 4);
  rig.contribute(*h, 4);
  const auto out = rig.run(50);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].kind, noc::MsgKind::kDnqWrite);
  EXPECT_EQ(out[0].a, 99U);
  EXPECT_EQ(out[0].payload_bytes, 16U);
  EXPECT_TRUE(rig.agg->idle());
  EXPECT_FALSE(rig.agg->entry_active(*h));
}

TEST(Agg, ZeroExpectedCompletesImmediately) {
  Rig rig;
  const auto h = rig.agg->allocate(4, 0, ReduceOp::kSum, rig.to_sink());
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(rig.agg->entry_active(*h));  // already completed
  const auto out = rig.run(50);
  EXPECT_EQ(out.size(), 1U);
}

TEST(Agg, SplitContributionsCountWords) {
  // A contribution split across two memory segments still counts by words,
  // not by message.
  Rig rig;
  const auto h = rig.agg->allocate(16, 16, ReduceOp::kSum, rig.to_sink());
  rig.contribute(*h, 10);
  EXPECT_TRUE(rig.run(20).empty());  // not yet complete
  rig.contribute(*h, 6);
  EXPECT_EQ(rig.run(50).size(), 1U);
}

TEST(Agg, DataScratchpadCapacityEnforced) {
  TileParams p;
  p.agg_data_bytes = 1024;
  Rig rig(p);
  // 1024 / (64 words * 4B) = 4 entries.
  std::vector<AggHandle> hs;
  for (int i = 0; i < 4; ++i) {
    const auto h = rig.agg->allocate(64, 64, ReduceOp::kSum, rig.to_sink());
    ASSERT_TRUE(h.has_value()) << i;
    hs.push_back(*h);
  }
  EXPECT_FALSE(
      rig.agg->allocate(64, 64, ReduceOp::kSum, rig.to_sink()).has_value());
  EXPECT_EQ(rig.agg->live_entries(), 4U);  // the refusal took no entry
  // Freeing one entry re-enables allocation.
  rig.contribute(hs[0], 64);
  rig.run(20);
  EXPECT_TRUE(
      rig.agg->allocate(64, 64, ReduceOp::kSum, rig.to_sink()).has_value());
}

TEST(Agg, ControlScratchpadCapacityEnforced) {
  TileParams p;
  p.agg_ctrl_bytes = 64;  // 4 entries at 16B metadata each
  Rig rig(p);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        rig.agg->allocate(1, 1, ReduceOp::kSum, rig.to_sink()).has_value());
  }
  EXPECT_FALSE(
      rig.agg->allocate(1, 1, ReduceOp::kSum, rig.to_sink()).has_value());
}

TEST(Agg, ResultToMemoryIsWriteRequest) {
  Rig rig;
  Dest d;
  d.kind = Dest::Kind::kMemWrite;
  d.addr = 0x100;
  const auto h = rig.agg->allocate(8, 8, ReduceOp::kSum, d);
  rig.contribute(*h, 8);
  // Result goes to the memory endpoint (2), not the sink.
  std::vector<noc::Message> mem_msgs;
  for (Cycle c = 0; c < 50; ++c) {
    rig.agg->tick();
    rig.net.tick();
    while (auto m = rig.net.poll(2)) mem_msgs.push_back(*m);
  }
  ASSERT_EQ(mem_msgs.size(), 1U);
  EXPECT_EQ(mem_msgs[0].kind, noc::MsgKind::kMemWriteReq);
  EXPECT_EQ(mem_msgs[0].a, 0x100U);
  EXPECT_EQ(mem_msgs[0].b, 32U);
}

TEST(Agg, ThroughputOneFlitPerCycle) {
  Rig rig;
  const auto h =
      rig.agg->allocate(16, 16 * 100, ReduceOp::kSum, rig.to_sink());
  for (int i = 0; i < 100; ++i) rig.contribute(*h, 16);
  rig.run(2000);
  // 100 contributions of one flit each: at least ~100 busy cycles.
  EXPECT_NEAR(rig.agg->stats().busy_time, 100.0, 1.0);
}

TEST(Agg, SlowCoreClockScalesBusyTime) {
  Rig rig(TileParams{}, ClockRatio{2, 1});  // core at half the NoC clock
  const auto h = rig.agg->allocate(16, 16 * 10, ReduceOp::kSum, rig.to_sink());
  for (int i = 0; i < 10; ++i) rig.contribute(*h, 16);
  rig.run(200);
  EXPECT_NEAR(rig.agg->stats().busy_time, 20.0, 1.0);
}

TEST(Agg, HandleReuseAfterCompletion) {
  Rig rig;
  const auto h1 = rig.agg->allocate(4, 4, ReduceOp::kSum, rig.to_sink());
  rig.contribute(*h1, 4);
  rig.run(20);
  const auto h2 = rig.agg->allocate(4, 4, ReduceOp::kSum, rig.to_sink());
  ASSERT_TRUE(h2.has_value());
  EXPECT_EQ(*h1, *h2);  // freed slot reused
  EXPECT_TRUE(rig.agg->entry_active(*h2));
}

TEST(Agg, DumpStateNamesRemainingWordsAndDestination) {
  // Watchdog diagnostics must read as a wait-for chain: each stalled
  // entry shows how many elements it still expects and which resource
  // (mem address / DNQ entry / AGG entry) its result would unblock.
  Rig rig;
  const auto h = rig.agg->allocate(4, 8, ReduceOp::kMax, rig.to_sink());
  ASSERT_TRUE(h.has_value());
  rig.contribute(*h, 3);
  (void)rig.run(20);

  std::ostringstream os;
  rig.agg->dump_state(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("remaining_words_total=5"), std::string::npos);
  EXPECT_NE(dump.find("received=3/8"), std::string::npos);
  EXPECT_NE(dump.find("remaining=5"), std::string::npos);
  EXPECT_NE(dump.find("op=max"), std::string::npos);
  EXPECT_NE(dump.find("-> dnq ep=" + std::to_string(rig.sink) + " handle=99"),
            std::string::npos);

  // Memory destinations are named by address.
  Dest mem;
  mem.kind = Dest::Kind::kMemWrite;
  mem.addr = 0xff00;
  const auto h2 = rig.agg->allocate(4, 4, ReduceOp::kSum, mem);
  ASSERT_TRUE(h2.has_value());
  std::ostringstream os2;
  rig.agg->dump_state(os2);
  EXPECT_NE(os2.str().find("-> mem addr=0xff00"), std::string::npos);
  EXPECT_NE(os2.str().find("op=sum"), std::string::npos);
}

// Malformed allocations are program bugs, not back-pressure: they must
// throw instead of returning nullopt (the GPE retries nullopt forever).
TEST(Agg, ZeroWidthAllocationThrows) {
  Rig rig;
  EXPECT_THROW((void)rig.agg->allocate(0, 4, ReduceOp::kSum, rig.to_sink()),
               std::invalid_argument);
}

TEST(Agg, NonAssociativeReduceOpThrows) {
  Rig rig;
  EXPECT_THROW((void)rig.agg->allocate(4, 4, ReduceOp::kMean, rig.to_sink()),
               std::invalid_argument);
}

TEST(Agg, UnitDestWithInvalidEndpointThrows) {
  Rig rig;
  Dest d = rig.to_sink();
  d.ep = kInvalidEndpoint;
  EXPECT_THROW((void)rig.agg->allocate(4, 4, ReduceOp::kSum, d),
               std::invalid_argument);
  // Memory destinations are named by address, not endpoint: fine.
  Dest mem;
  mem.kind = Dest::Kind::kMemWrite;
  mem.addr = 0x100;
  EXPECT_TRUE(rig.agg->allocate(4, 4, ReduceOp::kSum, mem).has_value());
}

}  // namespace
}  // namespace gnna::accel
