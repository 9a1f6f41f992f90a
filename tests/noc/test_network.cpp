#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "common/rng.hpp"

namespace gnna::noc {
namespace {

Message make_msg(EndpointId src, EndpointId dst, std::uint32_t bytes = 4,
                 std::uint64_t tag = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.payload_bytes = bytes;
  m.a = tag;
  return m;
}

/// Drain the network until idle (bounded), collecting deliveries per
/// endpoint.
std::map<EndpointId, std::vector<Message>> run_to_idle(MeshNetwork& net,
                                                       Cycle max_cycles) {
  std::map<EndpointId, std::vector<Message>> out;
  for (Cycle c = 0; c < max_cycles; ++c) {
    net.tick();
    for (EndpointId e = 0; e < net.num_endpoints(); ++e) {
      while (auto m = net.poll(e)) out[e].push_back(*m);
    }
    if (net.idle()) break;
  }
  EXPECT_TRUE(net.idle()) << "network did not drain";
  return out;
}

TEST(Mesh, RejectsEmptyMesh) {
  EXPECT_THROW(MeshNetwork(0, 1), std::invalid_argument);
}

TEST(Mesh, EndpointOffMeshThrows) {
  MeshNetwork net(2, 2);
  EXPECT_THROW(net.add_endpoint(2, 0), std::out_of_range);
}

TEST(Mesh, RouterPortsFitTheArbitrationMask) {
  // Arbitration keeps one bit per port in a 32-bit mask: four mesh ports
  // and at most 28 local ones.
  MeshNetwork net(2, 1);
  for (std::uint32_t i = 0; i < kMaxPorts - kFirstLocalPort; ++i) {
    (void)net.add_endpoint(0, 0);
  }
  EXPECT_THROW(net.add_endpoint(0, 0), std::length_error);
  const EndpointId last = static_cast<EndpointId>(net.num_endpoints() - 1);
  const EndpointId far = net.add_endpoint(1, 0);
  net.send(make_msg(last, far));
  net.send(make_msg(far, last));
  const auto out = run_to_idle(net, 100);
  EXPECT_EQ(out.at(far).size(), 1U);
  EXPECT_EQ(out.at(last).size(), 1U);
}

TEST(Mesh, AddEndpointAfterFinalizeThrows) {
  MeshNetwork net(1, 1);
  net.add_endpoint(0, 0);
  net.finalize();
  EXPECT_THROW(net.add_endpoint(0, 0), std::logic_error);
}

TEST(Mesh, SendToUnknownEndpointThrows) {
  MeshNetwork net(1, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  EXPECT_THROW(net.send(make_msg(a, 57)), std::out_of_range);
}

TEST(Mesh, SingleFlitSameRouterLatency) {
  MeshNetwork net(1, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(0, 0);
  net.send(make_msg(a, b));
  const auto out = run_to_idle(net, 100);
  ASSERT_EQ(out.at(b).size(), 1U);
  // Injection link + routing + ejection link = 3 cycles at zero load.
  EXPECT_EQ(out.at(b)[0].delivered_at - out.at(b)[0].injected_at, 3U);
}

TEST(Mesh, ZeroLoadLatencyGrowsTwoCyclesPerHop) {
  MeshNetwork net(5, 1);
  std::vector<EndpointId> eps;
  for (std::uint32_t x = 0; x < 5; ++x) eps.push_back(net.add_endpoint(x, 0));
  for (std::uint32_t hops = 1; hops < 5; ++hops) {
    net.send(make_msg(eps[0], eps[hops]));
    const auto out = run_to_idle(net, 200);
    const Message& m = out.at(eps[hops])[0];
    EXPECT_EQ(m.delivered_at - m.injected_at, 3U + 2U * hops) << hops;
  }
}

TEST(Mesh, MultiFlitSerializationAddsCycles) {
  MeshNetwork net(2, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(1, 0);
  net.send(make_msg(a, b, 64 * 7));  // 7 flits
  const auto out = run_to_idle(net, 200);
  const Message& m = out.at(b)[0];
  EXPECT_EQ(m.delivered_at - m.injected_at, 3U + 2U + 6U);
}

TEST(Mesh, ZeroByteMessageStillOneFlit) {
  MeshNetwork net(1, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(0, 0);
  Message m = make_msg(a, b, 0);
  EXPECT_EQ(m.flit_count(), 1U);
  net.send(m);
  const auto out = run_to_idle(net, 100);
  EXPECT_EQ(out.at(b).size(), 1U);
}

TEST(Mesh, SelfMessageDelivered) {
  MeshNetwork net(1, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  net.send(make_msg(a, a));
  const auto out = run_to_idle(net, 100);
  EXPECT_EQ(out.at(a).size(), 1U);
}

TEST(Mesh, PerPairOrderingPreserved) {
  MeshNetwork net(3, 3);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(2, 2);
  for (std::uint64_t i = 0; i < 50; ++i) {
    net.send(make_msg(a, b, 4 + (i % 5) * 64, /*tag=*/i));
  }
  const auto out = run_to_idle(net, 5000);
  ASSERT_EQ(out.at(b).size(), 50U);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(out.at(b)[i].a, i);
}

TEST(Mesh, PayloadFieldsSurviveTransit) {
  MeshNetwork net(2, 2);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(1, 1);
  Message m = make_msg(a, b, 128);
  m.kind = MsgKind::kMemReadReq;
  m.a = 0xDEAD;
  m.b = 0xBEEF;
  m.c = 42;
  m.reply_to = a;
  net.send(m);
  const auto out = run_to_idle(net, 200);
  const Message& r = out.at(b)[0];
  EXPECT_EQ(r.kind, MsgKind::kMemReadReq);
  EXPECT_EQ(r.a, 0xDEADU);
  EXPECT_EQ(r.b, 0xBEEFU);
  EXPECT_EQ(r.c, 42U);
  EXPECT_EQ(r.reply_to, a);
  EXPECT_EQ(r.src, a);
}

/// Property: every packet injected is delivered exactly once, for random
/// traffic on several mesh sizes.
class MeshAllToAll : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MeshAllToAll, ExactlyOnceDelivery) {
  const std::uint32_t dim = GetParam();
  MeshNetwork net(dim, dim);
  std::vector<EndpointId> eps;
  for (std::uint32_t y = 0; y < dim; ++y) {
    for (std::uint32_t x = 0; x < dim; ++x) {
      eps.push_back(net.add_endpoint(x, y));
      eps.push_back(net.add_endpoint(x, y));  // two endpoints per router
    }
  }
  Rng rng(dim * 101);
  const int kMessages = 400;
  std::map<std::uint64_t, int> expected;  // tag -> count
  for (int i = 0; i < kMessages; ++i) {
    const EndpointId s =
        eps[rng.next_below(eps.size())];
    const EndpointId d =
        eps[rng.next_below(eps.size())];
    net.send(make_msg(s, d, 4 + 64 * static_cast<std::uint32_t>(
                                          rng.next_below(4)),
                      /*tag=*/i));
    ++expected[i];
  }
  const auto out = run_to_idle(net, 100000);
  std::map<std::uint64_t, int> got;
  for (const auto& [ep, msgs] : out) {
    for (const auto& m : msgs) ++got[m.a];
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(net.stats().packets_delivered.value(),
            static_cast<std::uint64_t>(kMessages));
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, MeshAllToAll, ::testing::Values(1, 2, 3, 4));

TEST(Mesh, HotspotBackpressureDrains) {
  // Everyone hammers one endpoint with multi-flit messages; credits must
  // backpressure without loss or deadlock.
  MeshNetwork net(4, 4);
  std::vector<EndpointId> eps;
  for (std::uint32_t y = 0; y < 4; ++y) {
    for (std::uint32_t x = 0; x < 4; ++x) eps.push_back(net.add_endpoint(x, y));
  }
  const EndpointId sink = eps[5];
  int sent = 0;
  for (const EndpointId s : eps) {
    if (s == sink) continue;
    for (int i = 0; i < 20; ++i) {
      net.send(make_msg(s, sink, 256));
      ++sent;
    }
  }
  const auto out = run_to_idle(net, 200000);
  EXPECT_EQ(out.at(sink).size(), static_cast<std::size_t>(sent));
}

TEST(Mesh, InputBuffersNeverExceedCapacity) {
  NocParams params;
  MeshNetwork net(3, 1, params);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(2, 0);
  for (int i = 0; i < 30; ++i) net.send(make_msg(a, b, 512));
  for (Cycle c = 0; c < 20000 && !net.idle(); ++c) {
    net.tick();
    for (std::uint32_t x = 0; x < 3; ++x) {
      const Router& r = net.router_at(x, 0);
      for (std::uint32_t p = 0; p < r.num_ports(); ++p) {
        ASSERT_LE(r.buffer_occupancy(p), 4U) << "router " << x << " port " << p;
      }
    }
    while (net.poll(b)) {
    }
  }
  EXPECT_TRUE(net.idle());
}

TEST(Mesh, DumpStateNamesPortsAndWormholeLocks) {
  // The deadlock dump must name the blocked resource: per-port input
  // buffer occupancy (one VC per port) as "N=2/4", and output state with
  // the wormhole-locked input and remaining credits.
  NocParams params;
  MeshNetwork net(3, 1, params);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(2, 0);
  net.finalize();
  for (int i = 0; i < 30; ++i) net.send(make_msg(a, b, 512));
  // Mid-burst: 8-flit packets are crossing the routers, so input buffers
  // hold flits and at least one output is wormhole-locked.
  for (int c = 0; c < 6; ++c) net.tick();

  std::ostringstream os;
  net.dump_state(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("noc:"), std::string::npos);
  EXPECT_NE(dump.find("in=[N="), std::string::npos);
  EXPECT_NE(dump.find(" L0="), std::string::npos);
  EXPECT_NE(dump.find("/4"), std::string::npos);
  EXPECT_NE(dump.find("locked="), std::string::npos);
  // The oldest packet is listed first, and only outputs with a link are:
  // router (0,0) of a 3x1 mesh has no north, south or west neighbour, and
  // no flit heads west. The credits are the sender's, read at cycle 6.
  const std::size_t first_packet = dump.find("    packet ");
  ASSERT_NE(first_packet, std::string::npos);
  EXPECT_EQ(dump.compare(first_packet, 17, "    packet seq=1 "), 0) << dump;
  EXPECT_EQ(dump.find("out N"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("out S"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("out W"), std::string::npos) << dump;
  EXPECT_NE(dump.find("out E: locked=L0 credits=1"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("injection_credits=1"), std::string::npos) << dump;

  while (!net.idle()) {
    net.tick();
    while (net.poll(b)) {
    }
  }
}

TEST(Mesh, IdleSemantics) {
  MeshNetwork net(2, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(1, 0);
  net.finalize();
  EXPECT_TRUE(net.idle());
  net.send(make_msg(a, b));
  EXPECT_FALSE(net.idle());
  run_to_idle(net, 100);
  EXPECT_TRUE(net.idle());
}

TEST(Mesh, UnpolledDeliveryKeepsNetworkBusy) {
  MeshNetwork net(1, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(0, 0);
  net.send(make_msg(a, b));
  for (int i = 0; i < 20; ++i) net.tick();
  EXPECT_FALSE(net.idle());  // message sits undelivered in b's inbox
  EXPECT_EQ(net.delivery_queue_depth(b), 1U);
  EXPECT_NE(net.peek(b), nullptr);
  (void)net.poll(b);
  EXPECT_TRUE(net.idle());
}

TEST(Mesh, QuiescentOnceTheTailIsDeliveredAndSkipMovesOnlyTheClock) {
  MeshNetwork net(2, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(1, 0);
  net.finalize();
  EXPECT_TRUE(net.quiescent());
  net.send(make_msg(a, b, 200));  // four flits
  EXPECT_FALSE(net.quiescent());
  Cycle ticks = 0;
  while (!net.quiescent()) {
    net.tick();
    ASSERT_LT(++ticks, 100U);
  }
  // Quiescent but not idle: the message awaits poll(), and the credits the
  // flits used are all back, so a skip cannot lose one.
  EXPECT_FALSE(net.idle());
  EXPECT_EQ(net.delivery_queue_depth(b), 1U);
  const Cycle before = net.now();
  net.skip_to(before + 1000);
  EXPECT_EQ(net.now(), before + 1000);
  EXPECT_EQ(net.stats().packets_delivered.value(), 1U);
  // The mirror-image packet sent after the jump takes exactly as long.
  const Message first = *net.poll(b);
  net.send(make_msg(b, a, 200));
  const auto out = run_to_idle(net, 100);
  ASSERT_EQ(out.count(a), 1U);
  EXPECT_EQ(out.at(a).front().injected_at, before + 1000);
  EXPECT_EQ(out.at(a).front().delivered_at - out.at(a).front().injected_at,
            first.delivered_at - first.injected_at);
}

TEST(Mesh, HopsBetween) {
  MeshNetwork net(4, 3);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(3, 2);
  const EndpointId c = net.add_endpoint(0, 0);
  EXPECT_EQ(net.hops_between(a, b), 5U);
  EXPECT_EQ(net.hops_between(a, c), 0U);
  EXPECT_EQ(net.hops_between(b, a), 5U);
}

TEST(Mesh, StatsCountFlitsAndLatency) {
  MeshNetwork net(2, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(1, 0);
  net.send(make_msg(a, b, 64 * 3));
  run_to_idle(net, 200);
  EXPECT_EQ(net.stats().packets_delivered.value(), 1U);
  EXPECT_EQ(net.stats().flits_delivered.value(), 3U);
  EXPECT_EQ(net.stats().flit_hops.value(), 3U);  // one mesh link, 3 flits
  EXPECT_GT(net.stats().packet_latency.mean(), 0.0);
}

TEST(Mesh, XyZeroLoadLatency) {
  // Minimal XY routing takes the 3 + 2 hops from (0, 0) to (3, 2), at two
  // cycles per hop on top of the 3-cycle single-router latency.
  MeshNetwork net(4, 4);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(3, 2);
  net.send(make_msg(a, b));
  const auto out = run_to_idle(net, 500);
  EXPECT_EQ(out.at(b)[0].delivered_at - out.at(b)[0].injected_at,
            3U + 2U * 5U);
}

TEST(Mesh, ThroughputOneFlitPerCyclePerLink) {
  // A long stream across one link must sustain ~1 flit/cycle.
  MeshNetwork net(2, 1);
  const EndpointId a = net.add_endpoint(0, 0);
  const EndpointId b = net.add_endpoint(1, 0);
  const int kFlits = 512;
  for (int i = 0; i < kFlits / 8; ++i) net.send(make_msg(a, b, 64 * 8));
  Cycle start = net.now();
  const auto out = run_to_idle(net, 10000);
  ASSERT_EQ(out.at(b).size(), static_cast<std::size_t>(kFlits / 8));
  const Cycle elapsed = net.now() - start;
  // Serialization bound kFlits cycles; allow modest pipeline overheads.
  EXPECT_LE(elapsed, static_cast<Cycle>(kFlits * 1.3 + 20));
}

TEST(Mesh, InputPortForwardsAtMostOneFlitPerCycle) {
  // Regression: the per-output winner scan never marked an input as
  // consumed, so when a wormhole lock released, one input buffer could
  // pop flits for two different outputs (here: East eject and a local
  // port) in the same cycle.
  MeshNetwork net(3, 1);
  const EndpointId src_left = net.add_endpoint(0, 0);
  const EndpointId src_mid = net.add_endpoint(1, 0);
  const EndpointId sink_mid = net.add_endpoint(1, 0);
  const EndpointId sink_right = net.add_endpoint(2, 0);
  net.finalize();

  // An 8-flit packet wormhole-locks router (1,0)'s East output...
  net.send(make_msg(src_mid, sink_right, 64 * 8, 10));
  // ...while two single-flit packets for *different* outputs of router
  // (1,0) pile up in its West input buffer behind the lock.
  net.send(make_msg(src_left, sink_right, 4, 11));  // wants East
  net.send(make_msg(src_left, sink_mid, 4, 12));    // wants a local port

  const Router& r1 = net.router_at(1, 0);
  std::size_t prev = 0;
  std::size_t delivered = 0;
  for (Cycle c = 0; c < 300 && delivered < 3; ++c) {
    net.tick();
    const std::size_t occ = r1.buffer_occupancy(kPortWest);
    if (occ < prev) {
      // Once both stalled flits are buffered, nothing else arrives from
      // the west, so any drop in occupancy is pure departures: at most
      // one flit may leave one input port per cycle.
      EXPECT_LE(prev - occ, 1U) << "two flits left the West input in "
                                   "cycle "
                                << c;
    }
    prev = occ;
    for (EndpointId e = 0; e < net.num_endpoints(); ++e) {
      while (net.poll(e)) ++delivered;
    }
  }
  EXPECT_EQ(delivered, 3U);
}

TEST(Mesh, StalledGrantDoesNotRotateRoundRobinPriority) {
  // Regression: the round-robin pointer advanced whenever a winner was
  // merely *selected*, even if the move then stalled on zero credits.
  // Under a congested output the pointer therefore spun during every
  // stall, and whichever input it happened to land on when credits
  // returned won again and again — starving the other input for long
  // stretches. The pointer must move only on a committed transfer, which
  // makes two equally backlogged inputs alternate strictly.
  //
  // Topology: sources A and B share router (0,0)'s two local ports and
  // both stream single-flit packets east to the sink. An interferer on
  // the sink's router contends the 1-flit/cycle ejection port, so the
  // East link backs up and its credits stall periodically — exactly the
  // condition that made the old arbiter spin.
  MeshNetwork net(3, 1);
  const EndpointId src_a = net.add_endpoint(0, 0);
  const EndpointId src_b = net.add_endpoint(0, 0);
  const EndpointId interferer = net.add_endpoint(2, 0);
  const EndpointId sink = net.add_endpoint(2, 0);
  net.finalize();

  const int kN = 20;
  for (int i = 0; i < kN; ++i) {
    net.send(make_msg(src_a, sink, 4, static_cast<std::uint64_t>(i)));
    net.send(make_msg(src_b, sink, 4, 100 + static_cast<std::uint64_t>(i)));
    net.send(make_msg(interferer, sink, 4, 1000 + static_cast<std::uint64_t>(i)));
  }

  const auto out = run_to_idle(net, 5000);
  const auto& got = out.at(sink);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(3 * kN));

  // Project the delivery order onto the A/B contenders and measure the
  // longest run of consecutive grants to one source. A committed-move
  // pointer alternates ABAB... (run length 1); the rotate-on-select bug
  // produced runs of 15 with this traffic.
  int run = 0;
  int max_run = 0;
  char last = '?';
  std::uint64_t next_a = 0;
  std::uint64_t next_b = 100;
  for (const Message& m : got) {
    if (m.a >= 1000) continue;
    const char s = m.a < 100 ? 'A' : 'B';
    run = (s == last) ? run + 1 : 1;
    last = s;
    max_run = std::max(max_run, run);
    // Each source's own stream stays FIFO.
    if (s == 'A') {
      EXPECT_EQ(m.a, next_a++);
    } else {
      EXPECT_EQ(m.a, next_b++);
    }
  }
  EXPECT_EQ(next_a, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(next_b, 100U + static_cast<std::uint64_t>(kN));
  EXPECT_LE(max_run, 2) << "round-robin starved one input under a "
                           "congested output (rotate-on-select bug)";
}

TEST(Mesh, RoundRobinWrapsPastTheLastInput) {
  // Router (0,0) has local inputs 4, 5 and 6. A lone packet from port 5
  // leaves the East output's round-robin pointer on port 6, the highest
  // input. Ports 4 and 5 then stream head flits east together; port 6
  // stays silent. The unlocked scan must wrap from 6 past the mesh ports
  // to 4, then alternate 5, 4, 5, ...
  MeshNetwork net(2, 1);
  const EndpointId low = net.add_endpoint(0, 0);   // port 4
  const EndpointId mid = net.add_endpoint(0, 0);   // port 5
  (void)net.add_endpoint(0, 0);                    // port 6, never sends
  const EndpointId sink = net.add_endpoint(1, 0);
  net.finalize();

  net.send(make_msg(mid, sink, 4, /*tag=*/99));
  const auto primed = run_to_idle(net, 100);
  ASSERT_EQ(primed.at(sink).size(), 1U);

  const int kN = 6;
  for (int i = 0; i < kN; ++i) {
    net.send(make_msg(low, sink, 4, static_cast<std::uint64_t>(i)));
    net.send(make_msg(mid, sink, 4, 100 + static_cast<std::uint64_t>(i)));
  }
  const auto out = run_to_idle(net, 1000);
  std::vector<std::uint64_t> order;
  for (const Message& m : out.at(sink)) order.push_back(m.a);
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < kN; ++i) {
    expected.push_back(static_cast<std::uint64_t>(i));
    expected.push_back(100 + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(order, expected);
}

TEST(Mesh, LockedOutputWaitsForItsBodyFlit) {
  // Router (1,0)'s East output is wormhole-locked by the long packet P
  // from (0,0), whose head then waits at (2,0) behind packet Q for the
  // sink. P's body flits stall at (1,0) on zero credits while a rival head
  // flit R from (1,0)'s local port requests the same East output. Until
  // P's tail has passed, the locked output may grant only P's next body
  // flit: R must not slip in while P's body waits. (With 4-flit buffers
  // the 3-cycle credit round trip never lets a locked input run dry, so a
  // credit stall is how a locked input's body flit comes to wait.)
  MeshNetwork net(3, 1);
  const EndpointId far = net.add_endpoint(0, 0);
  const EndpointId near = net.add_endpoint(1, 0);
  const EndpointId sink = net.add_endpoint(2, 0);
  const EndpointId blocker = net.add_endpoint(2, 0);
  net.finalize();

  net.send(make_msg(blocker, sink, 64 * 8, /*tag=*/1));  // Q
  net.send(make_msg(far, sink, 64 * 8, /*tag=*/2));      // P
  for (int c = 0; c < 5; ++c) net.tick();
  net.send(make_msg(near, sink, 4, /*tag=*/3));          // R
  const auto out = run_to_idle(net, 1000);
  const auto& got = out.at(sink);
  ASSERT_EQ(got.size(), 3U);
  // Q drains first; P follows it flit for flit; R leaves (1,0) only after
  // P's tail, so it lands one cycle behind it.
  EXPECT_EQ(got[0].a, 1U);
  EXPECT_EQ(got[0].delivered_at, 10U);
  EXPECT_EQ(got[1].a, 2U);
  EXPECT_EQ(got[1].delivered_at, 18U);
  EXPECT_EQ(got[2].a, 3U);
  EXPECT_EQ(got[2].delivered_at, 19U);
}

/// FNV-1a 64 over the little-endian bytes of each word.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A mesh shape for the delivery digest: endpoints are registered in
/// AcceleratorSim::build() order (three per tile router, then one per
/// memory router).
struct DigestShape {
  const char* name;
  accel::AcceleratorConfig cfg;
  std::uint64_t max_sends_per_cycle;
  std::uint64_t to_memory_quarters;  // share of sends aimed at a memory node
};

DigestShape hotspot_3x1() {
  accel::AcceleratorConfig c;
  c.mesh_width = 3;
  c.mesh_height = 1;
  c.tile_coords = {{0, 0}, {2, 0}};
  c.mem_coords = {{1, 0}};
  return {"Hotspot3x1", c, 1, 3};  // one memory node takes 3/4 of sends
}

const std::vector<DigestShape>& digest_shapes() {
  static const std::vector<DigestShape> shapes = {
      {"CpuIsoBw2x1", accel::AcceleratorConfig::cpu_iso_bw(), 1, 2},
      {"GpuIsoBw4x4", accel::AcceleratorConfig::gpu_iso_bw(), 4, 2},
      {"GpuIsoFlops6x4", accel::AcceleratorConfig::gpu_iso_flops(), 5, 2},
      hotspot_3x1(),
  };
  return shapes;
}

/// Random traffic for 2000 cycles with lazily polling endpoints, then run
/// to idle. Hashes every polled message in poll order, then the clock and
/// the flit/packet counters.
std::uint64_t mesh_digest(const DigestShape& shape, std::uint64_t seed) {
  const accel::AcceleratorConfig& cfg = shape.cfg;
  MeshNetwork net(cfg.mesh_width, cfg.mesh_height, cfg.noc_params);
  for (const auto& [x, y] : cfg.tile_coords) {
    for (int unit = 0; unit < 3; ++unit) (void)net.add_endpoint(x, y);
  }
  for (const auto& [x, y] : cfg.mem_coords) (void)net.add_endpoint(x, y);
  net.finalize();
  const std::size_t eps = net.num_endpoints();
  const std::size_t mems = cfg.mem_coords.size();

  Rng rng(seed);
  std::vector<double> poll_chance(eps);
  for (double& p : poll_chance) p = 0.1 + 0.9 * rng.next_double();
  constexpr std::uint32_t kPayloads[] = {0, 4, 64, 65, 256, 512};

  Fnv1a h;
  const auto poll_some = [&] {
    for (EndpointId e = 0; e < eps; ++e) {
      if (!rng.next_bool(poll_chance[e])) continue;
      if (auto m = net.poll(e)) {
        h.add(m->seq);
        h.add(m->src);
        h.add(m->dst);
        h.add(m->injected_at);
        h.add(m->delivered_at);
      }
    }
  };
  for (int c = 0; c < 2000; ++c) {
    const std::uint64_t sends = rng.next_below(shape.max_sends_per_cycle + 1);
    for (std::uint64_t s = 0; s < sends; ++s) {
      const auto src = static_cast<EndpointId>(rng.next_below(eps));
      auto dst = static_cast<EndpointId>(rng.next_below(eps));
      if (rng.next_below(4) < shape.to_memory_quarters) {
        dst = static_cast<EndpointId>(eps - mems + rng.next_below(mems));
      }
      net.send(make_msg(src, dst, kPayloads[rng.next_below(6)]));
    }
    net.tick();
    poll_some();
  }
  for (Cycle c = 0; c < 200000 && !net.idle(); ++c) {
    net.tick();
    poll_some();
  }
  EXPECT_TRUE(net.idle()) << "network did not drain";
  h.add(net.now());
  h.add(net.stats().flit_hops.value());
  h.add(net.stats().flits_delivered.value());
  h.add(net.stats().packets_delivered.value());
  return h.value();
}

struct DigestCase {
  std::size_t shape;
  std::uint64_t seed;
  std::uint64_t expected;
};

class MeshDigest : public ::testing::TestWithParam<DigestCase> {};

// Any change to arbitration, flow control or delivery order moves at least
// one of these pinned digests.
TEST_P(MeshDigest, DeliveryOrderAndTimingArePinned) {
  const DigestCase& dc = GetParam();
  const std::uint64_t got = mesh_digest(digest_shapes()[dc.shape], dc.seed);
  EXPECT_EQ(got, dc.expected) << std::hex << "digest 0x" << got;
}

INSTANTIATE_TEST_SUITE_P(
    TableVIAndHotspot, MeshDigest,
    ::testing::Values(
        DigestCase{0, 1, 0x1221aa406eafd752ULL},
        DigestCase{0, 2, 0x12ca35e36f8f9051ULL},
        DigestCase{0, 3, 0x88153b04f79217a7ULL},
        DigestCase{0, 4, 0x6456f8488178c025ULL},
        DigestCase{1, 1, 0xa6046ceded84e885ULL},
        DigestCase{1, 2, 0x4e5a06a9f24a4388ULL},
        DigestCase{1, 3, 0x3e9326b80768a67aULL},
        DigestCase{1, 4, 0x591df9b628f2f7b2ULL},
        DigestCase{2, 1, 0x75019a4a9f7c63baULL},
        DigestCase{2, 2, 0xfe51b2b595ecfc09ULL},
        DigestCase{2, 3, 0x5d596484a4940a38ULL},
        DigestCase{2, 4, 0x588df26861292e4fULL},
        DigestCase{3, 1, 0x2f98594ecdc6355bULL},
        DigestCase{3, 2, 0xc5370ea10e726118ULL},
        DigestCase{3, 3, 0xb4f085fcd0ac2b12ULL},
        DigestCase{3, 4, 0xfbc24e28a4fce916ULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(digest_shapes()[info.param.shape].name) + "_Seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace gnna::noc
