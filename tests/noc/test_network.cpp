#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

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
  params.input_buffer_flits = 4;
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
  params.input_buffer_flits = 4;
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
  EXPECT_EQ(net.stats().packets_sent.value(), 1U);
  EXPECT_EQ(net.stats().packets_delivered.value(), 1U);
  EXPECT_EQ(net.stats().flits_delivered.value(), 3U);
  EXPECT_EQ(net.stats().flit_hops.value(), 3U);  // one mesh link, 3 flits
  EXPECT_GT(net.stats().packet_latency.mean(), 0.0);
}

TEST(Mesh, YxRoutingDeliversExactlyOnce) {
  NocParams params;
  params.routing = RoutingAlgorithm::kYX;
  MeshNetwork net(3, 3, params);
  std::vector<EndpointId> eps;
  for (std::uint32_t y = 0; y < 3; ++y) {
    for (std::uint32_t x = 0; x < 3; ++x) eps.push_back(net.add_endpoint(x, y));
  }
  Rng rng(55);
  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    net.send(make_msg(eps[rng.next_below(eps.size())],
                      eps[rng.next_below(eps.size())], 128, i));
  }
  run_to_idle(net, 50000);
  EXPECT_EQ(net.stats().packets_delivered.value(),
            static_cast<std::uint64_t>(kMessages));
}

TEST(Mesh, YxAndXySameZeroLoadLatency) {
  // Minimal routing: path length (and thus zero-load latency) is identical
  // for both dimension orders.
  for (const RoutingAlgorithm alg :
       {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX}) {
    NocParams params;
    params.routing = alg;
    MeshNetwork net(4, 4, params);
    const EndpointId a = net.add_endpoint(0, 0);
    const EndpointId b = net.add_endpoint(3, 2);
    net.send(make_msg(a, b));
    const auto out = run_to_idle(net, 500);
    EXPECT_EQ(out.at(b)[0].delivered_at - out.at(b)[0].injected_at,
              3U + 2U * 5U);
  }
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

}  // namespace
}  // namespace gnna::noc
