#include "mem/memory.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace gnna::mem {
namespace {

constexpr Frequency kClk = Frequency::giga_hertz(1.0);  // 1 cycle = 1 ns

struct Rig {
  noc::MeshNetwork net{2, 1};
  EndpointId requester;
  EndpointId mem_ep;
  std::optional<MemoryController> mem;

  explicit Rig(MemParams params = default_params()) {
    requester = net.add_endpoint(0, 0);
    mem_ep = net.add_endpoint(1, 0);
    net.finalize();
    mem.emplace(net, mem_ep, params, kClk);
  }

  static MemParams default_params() {
    MemParams p;
    p.bandwidth = Bandwidth::gb_per_s(64.0);  // 64 B/cycle at 1 GHz
    p.latency_ns = 20.0;                      // 20 cycles
    return p;
  }

  void send_read(Addr addr, std::uint64_t bytes, std::uint64_t tag = 0) {
    noc::Message m;
    m.src = requester;
    m.dst = mem_ep;
    m.kind = noc::MsgKind::kMemReadReq;
    m.a = addr;
    m.b = bytes;
    m.c = tag;
    net.send(m);
  }

  void send_write(Addr addr, std::uint64_t bytes) {
    noc::Message m;
    m.src = requester;
    m.dst = mem_ep;
    m.kind = noc::MsgKind::kMemWriteReq;
    m.payload_bytes = static_cast<std::uint32_t>(bytes);
    m.a = addr;
    m.b = bytes;
    net.send(m);
  }

  /// Run until `n` responses arrive (or cycle budget exhausted).
  std::vector<noc::Message> collect(std::size_t n, Cycle budget = 100000) {
    std::vector<noc::Message> out;
    for (Cycle c = 0; c < budget && out.size() < n; ++c) {
      mem->tick();
      net.tick();
      while (auto m = net.poll(requester)) out.push_back(*m);
    }
    return out;
  }
};

TEST(Memory, ReadGetsResponseWithEchoedFields) {
  Rig rig;
  rig.send_read(0x1000, 256, /*tag=*/77);
  const auto out = rig.collect(1);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].kind, noc::MsgKind::kMemReadResp);
  EXPECT_EQ(out[0].a, 0x1000U);
  EXPECT_EQ(out[0].b, 256U);
  EXPECT_EQ(out[0].c, 77U);
  EXPECT_EQ(out[0].payload_bytes, 256U);
}

TEST(Memory, ResponseRoutedToReplyTo) {
  noc::MeshNetwork net(2, 1);
  const EndpointId requester = net.add_endpoint(0, 0);
  const EndpointId other = net.add_endpoint(0, 0);
  const EndpointId mem_ep = net.add_endpoint(1, 0);
  net.finalize();
  MemoryController mem(net, mem_ep, Rig::default_params(), kClk);

  noc::Message m;
  m.src = requester;
  m.dst = mem_ep;
  m.reply_to = other;  // indirect request: data goes elsewhere
  m.kind = noc::MsgKind::kMemReadReq;
  m.a = 0;
  m.b = 64;
  net.send(m);
  bool got = false;
  for (Cycle c = 0; c < 1000 && !got; ++c) {
    mem.tick();
    net.tick();
    if (net.poll(other)) got = true;
    EXPECT_EQ(net.delivery_queue_depth(requester), 0U);
  }
  EXPECT_TRUE(got);
}

TEST(Memory, FixedLatencyFloor) {
  Rig rig;
  rig.send_read(0, 64);
  const auto out = rig.collect(1);
  ASSERT_EQ(out.size(), 1U);
  // NoC transit (~5 cycles each way) + 1 cycle transfer + 20 cycles DRAM
  // latency: well above 26, well below 60.
  const Cycle rtt = out[0].delivered_at;
  EXPECT_GE(rtt, 26U);
  EXPECT_LE(rtt, 60U);
}

TEST(Memory, BandwidthPacesLargeTransfers) {
  Rig rig;
  // 100 lines = 6400 bytes = 100 cycles of transfer at 64 B/cycle.
  rig.send_read(0, 6400);
  const auto out = rig.collect(1);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_GE(out[0].delivered_at, 100U);
}

TEST(Memory, BackToBackReadsSerializeOnTheBus) {
  Rig rig;
  const int kReqs = 10;
  for (int i = 0; i < kReqs; ++i) rig.send_read(i * 4096, 6400, i);
  const auto out = rig.collect(kReqs);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kReqs));
  // Total time must cover sequential transfers: 10 x 100 cycles.
  EXPECT_GE(out.back().delivered_at, 1000U);
  // In-order service.
  for (int i = 0; i < kReqs; ++i) EXPECT_EQ(out[i].c, static_cast<std::uint64_t>(i));
}

TEST(Memory, GranularityWastesBandwidthOnUnalignedRequests) {
  Rig rig;
  rig.send_read(60, 8);  // straddles a 64B boundary: 2 lines served
  rig.collect(1);
  EXPECT_EQ(rig.mem->stats().bytes_requested.value(), 8U);
  EXPECT_EQ(rig.mem->stats().bytes_served.value(), 128U);
}

TEST(Memory, AlignedFullLineIsNotPadded) {
  Rig rig;
  rig.send_read(128, 64);
  rig.collect(1);
  EXPECT_EQ(rig.mem->stats().bytes_served.value(), 64U);
}

TEST(Memory, WritesConsumeBandwidthSilently) {
  Rig rig;
  rig.send_write(0, 640);
  for (Cycle c = 0; c < 100; ++c) {
    rig.mem->tick();
    rig.net.tick();
  }
  EXPECT_EQ(rig.mem->stats().bytes_requested.value(), 640U);
  EXPECT_EQ(rig.mem->stats().bytes_served.value(), 640U);
  EXPECT_EQ(rig.net.delivery_queue_depth(rig.requester), 0U);
}

TEST(Memory, WriteDelaysSubsequentRead) {
  Rig rig;
  rig.send_write(0, 6400);  // 100 cycles of bus time
  rig.send_read(8192, 64, 1);
  const auto out = rig.collect(1);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_GE(out[0].delivered_at, 100U);
}

TEST(Memory, QueueAdmitsAtMost32) {
  Rig rig;
  for (int i = 0; i < 64; ++i) rig.send_read(i * 4096, 64 * 1000, i);
  // Give the controller time to admit what it can.
  for (Cycle c = 0; c < 200; ++c) {
    rig.mem->tick();
    rig.net.tick();
  }
  EXPECT_LE(rig.mem->stats().queue_depth.max(), 32.0);
  // Everything still completes.
  const auto out = rig.collect(64, 10'000'000);
  EXPECT_EQ(out.size(), 64U);
}

TEST(Memory, WritesOccupyQueueSlotsAndBackpressure) {
  // Regression: writes used to bypass the 32-entry in-order queue entirely
  // (admitted in unbounded numbers, invisible to idle()). With a slow bus
  // (0.64 B/cycle: one 64B line takes 100 cycles) and 40 pending writes,
  // only 32 may hold queue slots; the rest must wait in the NoC delivery
  // queue, and the controller must not report idle.
  MemParams p = Rig::default_params();
  p.bandwidth = Bandwidth::gb_per_s(0.64);
  Rig rig(p);
  const int kWrites = 40;
  for (int i = 0; i < kWrites; ++i) rig.send_write(i * 64, 64);
  for (Cycle c = 0; c < 300; ++c) {
    rig.mem->tick();
    rig.net.tick();
  }
  EXPECT_EQ(rig.mem->queue_depth(), 32U);
  EXPECT_GT(rig.net.delivery_queue_depth(rig.mem_ep), 0U);
  EXPECT_FALSE(rig.mem->idle());

  // A read sent behind the writes is serviced in order: its response can
  // only arrive after all 40 line transfers (~4000 cycles of bus time).
  rig.send_read(1 << 20, 64, 7);
  const auto out = rig.collect(1, 100000);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_GE(out[0].delivered_at, 4000U);
  EXPECT_EQ(rig.mem->stats().bytes_served.value(), 64U * kWrites + 64U);
  EXPECT_TRUE(rig.mem->idle());
}

TEST(Memory, IdleSemantics) {
  Rig rig;
  EXPECT_TRUE(rig.mem->idle());
  rig.send_read(0, 64);
  rig.collect(1);
  EXPECT_TRUE(rig.mem->idle());
}

TEST(Memory, MeanBandwidthReflectsServedBytes) {
  Rig rig;
  rig.send_read(0, 64000);
  rig.collect(1);
  const std::uint64_t served = rig.mem->stats().bytes_served.value();
  EXPECT_EQ(served, 64000U);
  const double bw = static_cast<double>(served) /
                    kClk.cycles_to_seconds(static_cast<double>(rig.net.now()));
  EXPECT_LE(bw, 64e9 * 1.01);
}

TEST(Memory, OversizedRequestRejectedAtAdmission) {
  // noc::Message::payload_bytes is 32 bits: a >= 4GiB read used to be
  // silently truncated into a tiny response packet. It must be rejected
  // with a diagnostic at admission instead.
  Rig rig;
  rig.send_read(0, 1ULL << 32, 9);
  EXPECT_THROW(rig.collect(1, 100), std::invalid_argument);
}

TEST(Memory, QueueDepthMeanIsTimeWeighted) {
  // One 6400-byte read occupies the only busy stretch: depth is 1 for
  // ~120 cycles (100 transfer + 20 latency) and 0 only for the few
  // arrival cycles, so the time-weighted mean must be near 1. The old
  // change-weighted sampling averaged the change points {0, 1, 0} ≈ 0.33.
  Rig rig;
  rig.send_read(0, 6400);
  rig.collect(1);
  const Accumulator& depth = rig.mem->stats().queue_depth;
  EXPECT_GT(depth.mean(), 0.8);
  EXPECT_LE(depth.mean(), 1.0);
  EXPECT_DOUBLE_EQ(depth.max(), 1.0);
}

TEST(Memory, FreedSlotIsReusableOnlyNextTick) {
  // Admission runs before retirement within one tick(), so a slot freed
  // by a retiring request is unusable until the next tick — the intended
  // 1-cycle slot-recycle latency.
  MemParams p = Rig::default_params();
  p.queue_entries = 1;
  Rig rig(p);
  rig.send_read(0, 64, 1);
  rig.send_read(4096, 64, 2);

  std::vector<noc::Message> out;
  bool saw_first_occupied = false;
  bool saw_gap_before_second = false;  // the 1-cycle recycle bubble
  for (Cycle c = 0; c < 1000 && out.size() < 2; ++c) {
    rig.mem->tick();
    const std::size_t depth = rig.mem->queue_depth();
    if (out.empty() && depth == 1) saw_first_occupied = true;
    if (saw_first_occupied && depth == 0 && out.size() < 2 &&
        rig.net.delivery_queue_depth(rig.mem_ep) > 0) {
      // First request retired, second delivered but not yet admitted.
      saw_gap_before_second = true;
    }
    rig.net.tick();
    while (auto m = rig.net.poll(rig.requester)) out.push_back(*m);
  }
  ASSERT_EQ(out.size(), 2U);
  EXPECT_TRUE(saw_first_occupied);
  EXPECT_TRUE(saw_gap_before_second);
  EXPECT_EQ(out[0].c, 1U);
  EXPECT_EQ(out[1].c, 2U);
}

// ---- FR-FCFS scheduler ----

MemParams frfcfs_params() {
  MemParams p = Rig::default_params();
  p.scheduler = MemScheduler::kFrFcfs;
  return p;
}

TEST(Memory, FrfcfsValidatesParams) {
  MemParams p = frfcfs_params();
  p.row_bytes = 96;  // not a multiple of the 64B interleave
  noc::MeshNetwork net(2, 1);
  net.add_endpoint(0, 0);
  const EndpointId ep = net.add_endpoint(1, 0);
  net.finalize();
  EXPECT_THROW(MemoryController(net, ep, p, kClk), std::invalid_argument);
  p.row_bytes = 2048;
  p.banks = 0;
  EXPECT_THROW(MemoryController(net, ep, p, kClk), std::invalid_argument);
}

TEST(Memory, FrfcfsSchedulerNameRoundTrips) {
  EXPECT_EQ(mem_scheduler_by_name("frfcfs"), MemScheduler::kFrFcfs);
  EXPECT_EQ(mem_scheduler_by_name("fr-fcfs"), MemScheduler::kFrFcfs);
  EXPECT_EQ(mem_scheduler_by_name("in_order"), MemScheduler::kInOrder);
  EXPECT_EQ(mem_scheduler_by_name("in-order"), MemScheduler::kInOrder);
  EXPECT_FALSE(mem_scheduler_by_name("fifo").has_value());
  EXPECT_STREQ(mem_scheduler_name(MemScheduler::kFrFcfs), "frfcfs");
}

TEST(Memory, FrfcfsRowHitOvertakesOlderRowMiss) {
  // One bank, distinct hit/miss latencies. Requests: row A (opens the
  // row), row B (miss), row A again (hit). FR-FCFS issues the ready row
  // hit before the older miss, so responses come back A1, A2, B — out of
  // request order, matched by tag.
  MemParams p = frfcfs_params();
  p.banks = 1;
  p.row_hit_ns = 10.0;
  p.row_miss_ns = 30.0;
  Rig rig(p);
  rig.send_read(0, 6400, /*tag=*/1);          // row 0: miss, opens it
  rig.send_read(1 << 20, 6400, /*tag=*/2);    // far row: miss
  rig.send_read(64, 6400, /*tag=*/3);         // row 0 again: hit
  const auto out = rig.collect(3);
  ASSERT_EQ(out.size(), 3U);
  EXPECT_EQ(out[0].c, 1U);
  EXPECT_EQ(out[1].c, 3U);  // the row hit jumped the queue
  EXPECT_EQ(out[2].c, 2U);
  EXPECT_EQ(rig.mem->row_hits(), 1U);
  EXPECT_EQ(rig.mem->row_misses(), 2U);
  EXPECT_NEAR(rig.mem->row_hit_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Memory, FrfcfsStarvationCapForcesOldestEventually) {
  // A lone row-B request behind a stream of row-A hits may be bypassed at
  // most starvation_cap times before it is served next.
  MemParams p = frfcfs_params();
  p.banks = 1;
  p.starvation_cap = 2;
  Rig rig(p);
  rig.send_read(0, 6400, 1);         // opens row A
  rig.send_read(1 << 20, 6400, 9);   // row B: the starvation candidate
  rig.send_read(64, 6400, 2);        // row A hits...
  rig.send_read(128, 6400, 3);
  rig.send_read(192, 6400, 4);
  rig.send_read(256, 6400, 5);
  const auto out = rig.collect(6);
  ASSERT_EQ(out.size(), 6U);
  std::vector<std::uint64_t> tags;
  for (const auto& m : out) tags.push_back(m.c);
  // B is bypassed by tags 2 and 3 (two row hits), then forced ahead of
  // the remaining hits by the cap.
  const std::vector<std::uint64_t> expect = {1, 2, 3, 9, 4, 5};
  EXPECT_EQ(tags, expect);
}

TEST(Memory, FrfcfsPerBankStatsAndInterleave) {
  // Four consecutive 64B lines interleave across four banks; each opens
  // its bank's row (a miss), and a second round over the same lines hits.
  MemParams p = frfcfs_params();
  p.banks = 4;
  Rig rig(p);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      rig.send_read(static_cast<Addr>(i) * 64, 64,
                    static_cast<std::uint64_t>(round * 4 + i));
    }
  }
  const auto out = rig.collect(8);
  ASSERT_EQ(out.size(), 8U);
  ASSERT_EQ(rig.mem->stats().banks.size(), 4U);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.mem->stats().banks[i].row_misses.value(), 1U) << i;
    EXPECT_EQ(rig.mem->stats().banks[i].row_hits.value(), 1U) << i;
    EXPECT_GT(rig.mem->stats().banks[i].busy_cycles, 0.0) << i;
  }
  EXPECT_DOUBLE_EQ(rig.mem->row_hit_rate(), 0.5);
}

TEST(Memory, FrfcfsDegeneratesBitIdenticallyToInOrder) {
  // banks=1 and row_hit_ns == row_miss_ns == latency_ns disables the
  // row-hit preference (pure FCFS) and makes every access latency equal,
  // so response tags AND delivery cycles must match the in-order model
  // exactly — including under window backpressure.
  MemParams frf = frfcfs_params();
  frf.banks = 1;
  frf.row_hit_ns = frf.row_miss_ns = frf.latency_ns;
  frf.window_entries = 32;  // same admission capacity as queue_entries

  Rig in_order;   // default in-order params
  Rig frfcfs(frf);
  auto drive = [](Rig& rig) {
    // Mixed traffic: unaligned sizes, writes interleaved, enough requests
    // to overflow the 32-entry queue and exercise backpressure.
    for (int i = 0; i < 48; ++i) {
      if (i % 5 == 2) {
        rig.send_write(static_cast<Addr>(i) * 4096 + 60, 130);
      } else {
        rig.send_read(static_cast<Addr>(i) * 4096, 100 + i * 64,
                      static_cast<std::uint64_t>(i));
      }
    }
    return rig.collect(48 - 10, 1'000'000);  // 38 reads expected back
  };
  const auto a = drive(in_order);
  const auto b = drive(frfcfs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].c, b[i].c) << i;
    EXPECT_EQ(a[i].delivered_at, b[i].delivered_at) << i;
  }
  EXPECT_EQ(in_order.mem->stats().bytes_served.value(),
            frfcfs.mem->stats().bytes_served.value());
  // Even degenerate FR-FCFS still tracks open-row state for stats.
  EXPECT_GT(frfcfs.mem->row_misses(), 0U);
  EXPECT_EQ(in_order.mem->row_hits() + in_order.mem->row_misses(), 0U);
}

TEST(Memory, BankXorSpreadsRowStridedCampingAcrossBanks) {
  // Addresses k * (banks * row_bytes) all map to bank 0 under the plain
  // interleave (granule % banks == 0) while walking a new row each time —
  // the camping pattern. The XOR permutation folds the row index into the
  // bank, rotating the stream across all four banks.
  MemParams plain = frfcfs_params();
  plain.banks = 4;
  MemParams permuted = plain;
  permuted.bank_xor = true;
  const Addr stride = 4ULL * plain.row_bytes;  // banks * row_bytes

  Rig camp(plain);
  Rig spread(permuted);
  for (auto* rig : {&camp, &spread}) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      rig->send_read(k * stride, 64, k);
    }
    ASSERT_EQ(rig->collect(4).size(), 4U);
  }

  // Without XOR: all four requests (four distinct rows) hammer bank 0.
  EXPECT_EQ(camp.mem->stats().banks[0].row_misses.value(), 4U);
  for (int b = 1; b < 4; ++b) {
    EXPECT_EQ(camp.mem->stats().banks[b].row_misses.value(), 0U) << b;
  }
  // With XOR: one request (and one row miss) per bank.
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(spread.mem->stats().banks[b].row_misses.value(), 1U) << b;
  }
  // The permutation only relabels banks; every byte is still served.
  EXPECT_EQ(camp.mem->stats().bytes_served.value(),
            spread.mem->stats().bytes_served.value());
}

TEST(Memory, BankXorIsDeterministic) {
  // Same config, same traffic, two independent controllers: response
  // order and delivery cycles must match exactly (the mapping is a pure
  // function of the address, no hidden state).
  MemParams p = frfcfs_params();
  p.banks = 8;
  p.bank_xor = true;
  auto drive = [&]() {
    Rig rig(p);
    for (int i = 0; i < 32; ++i) {
      if (i % 7 == 3) {
        rig.send_write(static_cast<Addr>(i) * 1024 + 32, 96);
      } else {
        rig.send_read(static_cast<Addr>(i) * 2048, 64 + (i % 3) * 64,
                      static_cast<std::uint64_t>(i));
      }
    }
    return rig.collect(32 - 5, 1'000'000);  // 27 reads expected back
  };
  const auto a = drive();
  const auto b = drive();
  ASSERT_EQ(a.size(), 27U);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].c, b[i].c) << i;
    EXPECT_EQ(a[i].delivered_at, b[i].delivered_at) << i;
  }
}

TEST(Memory, BankXorWithNonPowerOfTwoBanksStaysInRange) {
  // The double modulo keeps the permuted bank inside [0, banks) for a
  // non-power-of-two bank count; per-bank stats account every request.
  MemParams p = frfcfs_params();
  p.banks = 3;
  p.bank_xor = true;
  Rig rig(p);
  for (std::uint64_t k = 0; k < 12; ++k) {
    rig.send_read(k * 64 * 37, 64, k);  // scattered granules and rows
  }
  ASSERT_EQ(rig.collect(12).size(), 12U);
  ASSERT_EQ(rig.mem->stats().banks.size(), 3U);
  std::uint64_t accounted = 0;
  for (const auto& b : rig.mem->stats().banks) {
    accounted += b.row_hits.value() + b.row_misses.value();
  }
  EXPECT_EQ(accounted, 12U);
}

TEST(Memory, FrfcfsWindowBackpressuresLikeInOrderQueue) {
  MemParams p = frfcfs_params();
  p.window_entries = 4;
  Rig rig(p);
  for (int i = 0; i < 16; ++i) rig.send_read(i * 4096, 64 * 1000, i);
  for (Cycle c = 0; c < 200; ++c) {
    rig.mem->tick();
    rig.net.tick();
  }
  EXPECT_LE(rig.mem->stats().queue_depth.max(), 4.0);
  EXPECT_GT(rig.net.delivery_queue_depth(rig.mem_ep), 0U);
  EXPECT_FALSE(rig.mem->idle());
  const auto out = rig.collect(16, 10'000'000);
  EXPECT_EQ(out.size(), 16U);
  EXPECT_TRUE(rig.mem->idle());
}

TEST(Memory, TickingOnlyAtNextEventChangesNothing) {
  // Two identical controllers get the same mixed traffic over four banks:
  // one ticks every cycle, the other only when next_event() says a tick
  // can change state. A next event later than the first state change
  // would move a response or a stat; every skipped tick changes nothing.
  for (const MemScheduler sched :
       {MemScheduler::kInOrder, MemScheduler::kFrFcfs}) {
    for (const bool bank_xor : {false, true}) {
      SCOPED_TRACE(std::string(mem_scheduler_name(sched)) +
                   (bank_xor ? " bank_xor" : ""));
      MemParams p = Rig::default_params();
      p.bandwidth = Bandwidth::gb_per_s(68.0);  // fractional bus times
      p.scheduler = sched;
      p.queue_entries = 6;  // small enough that requests wait in the NoC
      p.window_entries = 6;
      p.banks = 4;
      p.row_bytes = 512;
      p.starvation_cap = 3;
      p.bank_xor = bank_xor;
      Rig every(p);
      Rig lazy(p);
      std::vector<noc::Message> got_every;
      std::vector<noc::Message> got_lazy;
      std::uint64_t lazy_ticks = 0;
      std::uint64_t x = 12345;  // LCG: addresses, sizes, kinds
      std::uint32_t sent = 0;
      for (Cycle c = 0; c < 20'000; ++c) {
        // A burst of 0-3 requests every 16 cycles until 120 are sent.
        if (c % 16 == 0 && sent < 120) {
          for (std::uint64_t k = c / 16 % 4; k > 0; --k, ++sent) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const Addr addr = (x >> 33) % 64 * 192;
            const std::uint64_t bytes = 32 + (x >> 20) % 8 * 200;
            for (Rig* rig : {&every, &lazy}) {
              if ((x >> 12) % 4 == 0) {
                rig->send_write(addr, bytes);
              } else {
                rig->send_read(addr, bytes, sent);
              }
            }
          }
        }
        every.mem->tick();
        if (lazy.mem->next_event(lazy.net.now()) <= lazy.net.now()) {
          lazy.mem->tick();
          ++lazy_ticks;
        }
        for (Rig* rig : {&every, &lazy}) rig->net.tick();
        while (auto m = every.net.poll(every.requester)) {
          got_every.push_back(*m);
        }
        while (auto m = lazy.net.poll(lazy.requester)) {
          got_lazy.push_back(*m);
        }
      }
      ASSERT_TRUE(every.mem->idle());
      ASSERT_TRUE(lazy.mem->idle());
      EXPECT_LT(lazy_ticks, 20'000U / 4) << "next_event skipped too little";

      ASSERT_GT(got_every.size(), 50U);
      ASSERT_EQ(got_every.size(), got_lazy.size());
      for (std::size_t i = 0; i < got_every.size(); ++i) {
        EXPECT_EQ(got_every[i].c, got_lazy[i].c) << i;
        EXPECT_EQ(got_every[i].delivered_at, got_lazy[i].delivered_at) << i;
      }
      const MemStats& a = every.mem->stats();
      const MemStats& b = lazy.mem->stats();
      EXPECT_EQ(a.bytes_requested.value(), b.bytes_requested.value());
      EXPECT_EQ(a.bytes_served.value(), b.bytes_served.value());
      EXPECT_EQ(a.queue_depth.sum(), b.queue_depth.sum());
      EXPECT_EQ(a.queue_depth.weight(), b.queue_depth.weight());
      EXPECT_EQ(a.queue_depth.max(), b.queue_depth.max());
      ASSERT_EQ(a.banks.size(), b.banks.size());
      for (std::size_t k = 0; k < a.banks.size(); ++k) {
        EXPECT_EQ(a.banks[k].row_hits.value(), b.banks[k].row_hits.value());
        EXPECT_EQ(a.banks[k].row_misses.value(),
                  b.banks[k].row_misses.value());
        EXPECT_EQ(a.banks[k].busy_cycles, b.banks[k].busy_cycles);
      }
      if (sched == MemScheduler::kFrFcfs) {
        EXPECT_GT(every.mem->row_hits(), 0U);
        EXPECT_GT(every.mem->row_misses(), 0U);
      }
    }
  }
}

}  // namespace
}  // namespace gnna::mem
