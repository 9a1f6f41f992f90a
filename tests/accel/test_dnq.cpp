#include "accel/dnq.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gnna::accel {
namespace {

Dest mem_dest(Addr addr) {
  Dest d;
  d.kind = Dest::Kind::kMemWrite;
  d.addr = addr;
  return d;
}

noc::Message fill(DnqHandle h, std::uint32_t bytes) {
  noc::Message m;
  m.kind = noc::MsgKind::kDnqWrite;
  m.a = h;
  m.payload_bytes = bytes;
  return m;
}

TEST(Dnq, AllocateFillDequeue) {
  Dnq q{TileParams{}};
  const auto h = q.allocate(0, 8, mem_dest(0x40));
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(q.try_dequeue(false).has_value());  // not ready
  q.on_message(fill(*h, 32));
  const auto e = q.try_dequeue(false);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->width_words, 8U);
  EXPECT_EQ(e->dest.addr, 0x40U);
  EXPECT_TRUE(q.empty());
}

TEST(Dnq, PartialFillNotReady) {
  Dnq q{TileParams{}};
  const auto h = q.allocate(0, 8, mem_dest(0));
  q.on_message(fill(*h, 16));
  EXPECT_FALSE(q.try_dequeue(false).has_value());
  q.on_message(fill(*h, 16));
  EXPECT_TRUE(q.try_dequeue(false).has_value());
}

TEST(Dnq, FifoOrderWithinQueue) {
  Dnq q{TileParams{}};
  const auto h1 = q.allocate(0, 1, mem_dest(1));
  const auto h2 = q.allocate(0, 1, mem_dest(2));
  // Fill the SECOND entry first: head-of-line blocking until h1 is ready.
  q.on_message(fill(*h2, 4));
  EXPECT_FALSE(q.try_dequeue(false).has_value());
  q.on_message(fill(*h1, 4));
  EXPECT_EQ(q.try_dequeue(false)->dest.addr, 1U);
  EXPECT_EQ(q.try_dequeue(false)->dest.addr, 2U);
}

TEST(Dnq, SplitConservesEveryScratchpadByte) {
  // Regression: the default split computed dnq_data_bytes/16*sixteenths,
  // truncating the per-sixteenth size first — with a non-divisible
  // scratchpad and sixteenths=16 queue 0 got only 992 of 1000 bytes.
  TileParams p;
  p.dnq_data_bytes = 1000;
  p.dnq_queue0_sixteenths = 16;  // all of it
  EXPECT_EQ(Dnq::queue0_split_bytes(p), 1000U);
  Dnq q{p};
  EXPECT_EQ(q.queue_capacity_bytes(0), 1000U);
  EXPECT_EQ(q.queue_capacity_bytes(1), 0U);

  // Uneven split: queue 1 receives the remainder, nothing is lost.
  p.dnq_queue0_sixteenths = 11;
  EXPECT_EQ(Dnq::queue0_split_bytes(p), 687U);  // floor(1000*11/16)
  Dnq q2{p};
  EXPECT_EQ(q2.queue_capacity_bytes(0) + q2.queue_capacity_bytes(1), 1000U);

  // A 250-word (1000B) entry must fit when queue 0 owns the whole pad.
  p.dnq_queue0_sixteenths = 16;
  Dnq q3{p};
  EXPECT_TRUE(q3.allocate(0, 250, mem_dest(0)).has_value());
}

TEST(Dnq, DataCapacityPerQueue) {
  TileParams p;
  p.dnq_data_bytes = 1024;
  p.dnq_queue0_sixteenths = 8;  // 512B each
  Dnq q{p};
  q.configure(512, 512);
  // Queue 0 takes 4 x 32-word (128B) entries, then fails.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.allocate(0, 32, mem_dest(i)).has_value()) << i;
  }
  EXPECT_FALSE(q.allocate(0, 32, mem_dest(9)).has_value());
  // Queue 1 has independent capacity.
  EXPECT_TRUE(q.allocate(1, 32, mem_dest(10)).has_value());
  // The refusal took no space.
  EXPECT_EQ(q.live_entries(), 5U);
  EXPECT_EQ(q.queue_used_bytes(0), 512U);
}

TEST(Dnq, DestScratchpadLimitsEntryCount) {
  TileParams p;
  p.dnq_dest_bytes = 32;  // 4 entries at 8B each
  Dnq q{p};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.allocate(0, 1, mem_dest(i)).has_value());
  }
  EXPECT_FALSE(q.allocate(0, 1, mem_dest(5)).has_value());
}

TEST(Dnq, FreedSpaceReusable) {
  TileParams p;
  p.dnq_data_bytes = 128;
  Dnq q{p};
  q.configure(128, 0);
  const auto h = q.allocate(0, 32, mem_dest(0));
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(q.allocate(0, 32, mem_dest(1)).has_value());
  q.on_message(fill(*h, 128));
  ASSERT_TRUE(q.try_dequeue(false).has_value());
  EXPECT_TRUE(q.allocate(0, 32, mem_dest(1)).has_value());
}

TEST(Dnq, LazySwitchWaitsForIdleThreshold) {
  Dnq q{TileParams{}};
  q.configure(31 * 1024, 31 * 1024);
  const auto h1 = q.allocate(1, 1, mem_dest(7));
  q.on_message(fill(*h1, 4));
  // Queue 1's head is ready but the active queue is 0 (empty): the switch
  // waits until the DNA allows it, once idle for its threshold (the
  // threshold itself is checked in test_dna).
  EXPECT_EQ(q.active_queue(), 0);
  EXPECT_FALSE(q.try_dequeue(false).has_value());
  EXPECT_EQ(q.stats().queue_switches.value(), 0U);
  const auto e = q.try_dequeue(true);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->dest.addr, 7U);
  EXPECT_EQ(q.active_queue(), 1);
  EXPECT_EQ(q.stats().queue_switches.value(), 1U);
}

TEST(Dnq, NoSwitchWhenActiveHeadReady) {
  Dnq q{TileParams{}};
  q.configure(31 * 1024, 31 * 1024);
  const auto h0 = q.allocate(0, 1, mem_dest(1));
  const auto h1 = q.allocate(1, 1, mem_dest(2));
  q.on_message(fill(*h0, 4));
  q.on_message(fill(*h1, 4));
  // Even when a switch is allowed, the active queue serves first.
  EXPECT_EQ(q.try_dequeue(true)->dest.addr, 1U);
  EXPECT_EQ(q.stats().queue_switches.value(), 0U);
}

TEST(Dnq, SwitchBackAndForth) {
  Dnq q{TileParams{}};
  q.configure(31 * 1024, 31 * 1024);
  const auto h1 = q.allocate(1, 1, mem_dest(1));
  q.on_message(fill(*h1, 4));
  ASSERT_TRUE(q.try_dequeue(true).has_value());
  EXPECT_EQ(q.active_queue(), 1);
  const auto h0 = q.allocate(0, 1, mem_dest(2));
  q.on_message(fill(*h0, 4));
  ASSERT_TRUE(q.try_dequeue(true).has_value());
  EXPECT_EQ(q.active_queue(), 0);
  EXPECT_EQ(q.stats().queue_switches.value(), 2U);
}

TEST(Dnq, StatsCountWordsAndDequeues) {
  Dnq q{TileParams{}};
  const auto h = q.allocate(0, 4, mem_dest(0));
  EXPECT_EQ(q.live_entries(), 1U);
  q.on_message(fill(*h, 16));
  EXPECT_TRUE(q.try_dequeue(false).has_value());
  EXPECT_EQ(q.stats().enqueued_words.value(), 4U);
  EXPECT_TRUE(q.empty());
}

TEST(Dnq, LiveEntriesTracksOutstanding) {
  Dnq q{TileParams{}};
  const auto h1 = q.allocate(0, 1, mem_dest(0));
  (void)q.allocate(0, 1, mem_dest(1));
  EXPECT_EQ(q.live_entries(), 2U);
  q.on_message(fill(*h1, 4));
  (void)q.try_dequeue(false);
  EXPECT_EQ(q.live_entries(), 1U);
}

// Malformed requests and splits are program/config bugs: they throw
// explicitly instead of surfacing as nullopt back-pressure or a deadlock.
TEST(Dnq, SplitSixteenthsOutOfRangeThrows) {
  TileParams params;
  params.dnq_queue0_sixteenths = 17;
  EXPECT_THROW((void)Dnq::queue0_split_bytes(params), std::invalid_argument);
  EXPECT_THROW(Dnq{params}, std::invalid_argument);
}

TEST(Dnq, ConfigureOverfullSplitThrows) {
  Dnq q{TileParams{}};
  const TileParams params;
  EXPECT_THROW(q.configure(params.dnq_data_bytes, 1), std::invalid_argument);
}

TEST(Dnq, ConfigureNonEmptyQueueThrows) {
  Dnq q{TileParams{}};
  (void)q.allocate(0, 1, mem_dest(0));
  EXPECT_THROW(q.configure(64, 64), std::logic_error);
}

TEST(Dnq, AllocateBadQueueOrWidthThrows) {
  Dnq q{TileParams{}};
  EXPECT_THROW((void)q.allocate(2, 4, mem_dest(0)), std::invalid_argument);
  EXPECT_THROW((void)q.allocate(0, 0, mem_dest(0)), std::invalid_argument);
}

TEST(Dnq, AllocateUnitDestWithInvalidEndpointThrows) {
  Dnq q{TileParams{}};
  Dest d;
  d.kind = Dest::Kind::kAggEntry;
  d.ep = kInvalidEndpoint;
  EXPECT_THROW((void)q.allocate(0, 4, d), std::invalid_argument);
}

}  // namespace
}  // namespace gnna::accel
