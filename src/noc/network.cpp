#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace gnna::noc {
namespace {

/// Static names for send-side instant events (tracer names are not copied).
[[nodiscard]] constexpr const char* send_event_name(MsgKind k) {
  switch (k) {
    case MsgKind::kGeneric: return "send:generic";
    case MsgKind::kMemReadReq: return "send:mem_read_req";
    case MsgKind::kMemReadResp: return "send:mem_read_resp";
    case MsgKind::kMemWriteReq: return "send:mem_write_req";
    case MsgKind::kDnqWrite: return "send:dnq_write";
    case MsgKind::kAggWrite: return "send:agg_write";
  }
  return "send:?";
}

}  // namespace

Router::Router(std::uint32_t x, std::uint32_t y, std::uint32_t num_local_ports)
    : x_(x), y_(y), num_local_(num_local_ports) {
  buffers_.resize(num_ports());
  outputs_.resize(num_ports());
}

MeshNetwork::MeshNetwork(std::uint32_t width, std::uint32_t height,
                         NocParams /*params*/)
    : width_(width), height_(height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("MeshNetwork: empty mesh");
  }
  local_ports_per_router_.assign(
      static_cast<std::size_t>(width) * height, 0);
}

EndpointId MeshNetwork::add_endpoint(std::uint32_t x, std::uint32_t y) {
  if (finalized_) {
    throw std::logic_error("MeshNetwork: add_endpoint after finalize");
  }
  if (x >= width_ || y >= height_) {
    throw std::out_of_range("MeshNetwork: endpoint off the mesh");
  }
  if (kFirstLocalPort + local_ports_per_router_[router_index(x, y)] ==
      kMaxPorts) {
    throw std::length_error("MeshNetwork: router has no free local port");
  }
  EndpointState ep;
  ep.x = x;
  ep.y = y;
  ep.input = router_index(x, y) * kMaxPorts + kFirstLocalPort +
             local_ports_per_router_[router_index(x, y)]++;
  endpoints_.push_back(ep);
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void MeshNetwork::finalize() {
  if (finalized_) return;
  finalized_ = true;
  routers_.reserve(local_ports_per_router_.size());
  for (std::uint32_t y = 0; y < height_; ++y) {
    for (std::uint32_t x = 0; x < width_; ++x) {
      routers_.emplace_back(x, y, local_ports_per_router_[router_index(x, y)]);
    }
  }
  injecting_.assign((endpoints_.size() + 63) / 64, 0);
  delivered_.assign(injecting_.size(), 0);
  // Routing table: dimension-order routes are fixed by the topology, so
  // each (router, destination) pair is routed once, here.
  port_of_.resize(routers_.size() * endpoints_.size());
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    for (EndpointId d = 0; d < endpoints_.size(); ++d) {
      port_of_[ri * endpoints_.size() + d] =
          static_cast<std::uint8_t>(route(routers_[ri], d));
    }
  }
  // The port graph: every input buffer's sender starts with the buffer's
  // full capacity, and each mesh output links to its neighbour's facing
  // input (North is y + 1).
  credits_.assign(routers_.size() * kMaxPorts, NocParams::input_buffer_flits);
  next_input_.assign(routers_.size() * kMaxPorts, kNoLink);
  const auto input = [](std::uint32_t router, std::uint32_t port) {
    return router * kMaxPorts + port;
  };
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    const std::uint32_t x = ri % width_;
    const std::uint32_t y = ri / width_;
    std::uint32_t* next = &next_input_[input(ri, 0)];
    if (y + 1 < height_) next[kPortNorth] = input(ri + width_, kPortSouth);
    if (y > 0) next[kPortSouth] = input(ri - width_, kPortNorth);
    if (x + 1 < width_) next[kPortEast] = input(ri + 1, kPortWest);
    if (x > 0) next[kPortWest] = input(ri - 1, kPortEast);
  }
}

void MeshNetwork::send(Message msg) {
  finalize();
  if (msg.src >= endpoints_.size() || msg.dst >= endpoints_.size()) {
    throw std::out_of_range("MeshNetwork::send: bad endpoint");
  }
  msg.seq = next_seq_++;
  msg.injected_at = now_;
  if (free_packets_.empty()) {
    free_packets_.push_back(static_cast<std::uint32_t>(packets_.size()));
    packets_.emplace_back();
  }
  const std::uint32_t slot = free_packets_.back();
  free_packets_.pop_back();
  packets_[slot] = msg;
  const std::uint32_t flits = msg.flit_count();
  EndpointState& src = endpoints_[msg.src];
  for (std::uint32_t i = 0; i < flits; ++i) {
    src.injection.push_back(Flit{slot, msg.dst, i == 0, i == flits - 1});
  }
  injecting_[msg.src / 64] |= std::uint64_t{1} << (msg.src % 64);
  if (tracer_.enabled()) {
    tracer_.instant(send_event_name(msg.kind),
                    (std::uint64_t{msg.src} << 32) | msg.dst,
                    msg.payload_bytes);
  }
}

std::size_t MeshNetwork::injection_queue_depth(EndpointId ep) const {
  return endpoints_.at(ep).injection.size();
}

std::uint32_t MeshNetwork::route(const Router& r, EndpointId dst) const {
  const EndpointState& d = endpoints_[dst];
  if (d.x > r.x()) return kPortEast;
  if (d.x < r.x()) return kPortWest;
  if (d.y > r.y()) return kPortNorth;
  if (d.y < r.y()) return kPortSouth;
  return d.input % kMaxPorts;
}

void MeshNetwork::phase_route() {
  const std::size_t num_eps = endpoints_.size();
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    Router& r = routers_[ri];
    if (r.occupied_ == 0) continue;  // nothing to arbitrate
    const std::uint8_t* port_of = &port_of_[ri * num_eps];
    const std::uint32_t* next_input = &next_input_[ri * kMaxPorts];

    // Input-first requests from the start-of-cycle fronts: every non-empty
    // input asks for exactly one output, so no input can win twice.
    const std::uint32_t ports = r.num_ports();
    std::array<std::uint32_t, kMaxPorts> requests;  // output -> inputs
    std::fill_n(requests.begin(), ports, 0U);
    std::uint32_t heads = 0;   // inputs whose front is a head flit
    std::uint32_t wanted = 0;  // outputs with at least one request
    for (std::uint32_t m = r.occupied_; m != 0; m &= m - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
      const Flit& f = r.buffers_[i].front();
      const std::uint32_t o = port_of[f.dst];
      requests[o] |= 1U << i;
      wanted |= 1U << o;
      if (f.head) heads |= 1U << i;
    }

    for (; wanted != 0; wanted &= wanted - 1) {
      const auto o = static_cast<std::uint32_t>(std::countr_zero(wanted));
      Router::OutputState& out = r.outputs_[o];

      // A locked output serves only its wormhole's input; an unlocked one
      // grants the first head-flit requester at or after rr_next, wrapping.
      std::uint32_t wi = 0;
      if (out.locked_input >= 0) {
        wi = static_cast<std::uint32_t>(out.locked_input);
        if ((requests[o] >> wi & 1U) == 0) continue;
      } else {
        const std::uint32_t candidates = requests[o] & heads;
        if (candidates == 0) continue;  // body flits only follow a lock
        const std::uint32_t from_rr = candidates & (~0U << out.rr_next);
        wi = static_cast<std::uint32_t>(
            std::countr_zero(from_rr != 0 ? from_rr : candidates));
      }

      // Local outputs eject, rate-limited but not credited.
      std::uint32_t to = kEject;
      if (o < kFirstLocalPort) {
        to = next_input[o];
        if (credits_[to] == 0) continue;  // stall: keep lock and rr_next
        --credits_[to];
        stats_.flit_hops.add();
      }

      // Commit the move. The round-robin pointer advances only here — a
      // grant that stalled on credits keeps its priority next cycle
      // instead of silently rotating past a starved input.
      Router::InputBuffer& in = r.buffers_[wi];
      const Flit f = in.front();
      in.pop();
      if (in.size == 0) r.occupied_ &= ~(1U << wi);
      if (out.locked_input < 0) out.rr_next = (wi + 1) % ports;
      if (f.head) out.locked_input = static_cast<int>(wi);
      if (f.tail) out.locked_input = -1;
      credit_returns_.push_back(ri * kMaxPorts + wi);
      links_.push_back({f, to});
    }
  }
}

void MeshNetwork::phase_arrive() {
  // Push order (routers ascending, outputs ascending, then injections) is
  // arrival order, so endpoint deliveries and trace events keep it.
  for (const LinkEntry& le : links_due_) {
    if (le.to != kEject) {
      Router& dr = routers_[le.to / kMaxPorts];
      const std::uint32_t port = le.to % kMaxPorts;
      assert(dr.can_accept(port) && "credit protocol violated");
      dr.accept(port, le.flit);
      continue;
    }
    EndpointState& ep = endpoints_[le.flit.dst];
    ++ep.assembling_flits;
    stats_.flits_delivered.add();
    if (!le.flit.tail) continue;
    Message m = packets_[le.flit.packet];
    packets_[le.flit.packet].seq = 0;  // the slot is free
    free_packets_.push_back(le.flit.packet);
    m.delivered_at = now_;
    assert(ep.assembling_flits == m.flit_count());
    ep.assembling_flits = 0;
    stats_.packets_delivered.add();
    stats_.packet_latency.add(
        static_cast<double>(m.delivered_at - m.injected_at));
    if (tracer_.enabled()) {
      // One duration event spanning the packet's time in the network.
      tracer_.complete(msg_kind_name(m.kind),
                       static_cast<double>(m.injected_at),
                       static_cast<double>(m.delivered_at - m.injected_at),
                       (std::uint64_t{m.src} << 32) | m.dst, m.payload_bytes);
      // Attribution hook: flits, hop distance, and the owning work item of
      // the delivered packet.
      tracer_.packet(m.src, m.dst, m.owner, m.flit_count(),
                     hops_between(m.src, m.dst), m.payload_bytes);
    }
    ep.delivery.push_back(m);
    delivered_[m.dst / 64] |= std::uint64_t{1} << (m.dst % 64);
  }
  links_due_.clear();
}

void MeshNetwork::phase_inject() {
  // Only endpoints with queued flits, in ascending order (the push order
  // phase_arrive replays).
  for (std::size_t w = 0; w < injecting_.size(); ++w) {
    for (std::uint64_t m = injecting_[w]; m != 0; m &= m - 1) {
      const auto e = static_cast<EndpointId>(w * 64 + std::countr_zero(m));
      EndpointState& ep = endpoints_[e];
      if (credits_[ep.input] == 0) continue;
      --credits_[ep.input];
      links_.push_back({ep.injection.front(), ep.input});
      ep.injection.pop_front();
      if (ep.injection.empty()) injecting_[w] &= ~(std::uint64_t{1} << e % 64);
    }
  }
}

void MeshNetwork::tick() {
  finalize();
  if (quiescent()) {
    ++now_;
    return;
  }
  // Everything made last tick falls due now (link_delay == 1): credits
  // first, then the links phase_arrive consumes after routing.
  for (const std::uint32_t in : credit_returns_) ++credits_[in];
  credit_returns_.clear();
  links_.swap(links_due_);
  phase_route();
  phase_arrive();
  phase_inject();
  ++now_;
}

void MeshNetwork::skip_to(Cycle t) {
  assert(quiescent() && t >= now_ && "skip_to: network not quiescent");
  now_ = t;
}

bool MeshNetwork::idle() const {
  // The slot pool holds every packet from send() until tail ejection, so
  // an empty pool already implies empty router buffers and injection
  // queues; delivery queues hold packets the components have not consumed
  // yet.
  if (!links_.empty() || inflight_packets() != 0) return false;
  for (const auto& ep : endpoints_) {
    if (!ep.delivery.empty()) return false;
  }
  return true;
}

void MeshNetwork::dump_state(std::ostream& os) const {
  os << "  noc: cycle=" << now_ << " inflight_packets=" << inflight_packets()
     << " links_in_flight=" << links_.size()
     << " pending_credits=" << credit_returns_.size() << '\n';
  // The oldest packets first: they are the likeliest to be stuck.
  std::vector<const Message*> live;
  for (const Message& m : packets_) {
    if (m.seq != 0) live.push_back(&m);
  }
  const std::size_t shown = std::min<std::size_t>(live.size(), 16);
  std::partial_sort(live.begin(), live.begin() + shown, live.end(),
                    [](const Message* a, const Message* b) {
                      return a->seq < b->seq;
                    });
  for (std::size_t i = 0; i < shown; ++i) {
    const Message& m = *live[i];
    os << "    packet seq=" << m.seq << ' ' << msg_kind_name(m.kind)
       << " src=" << m.src << " dst=" << m.dst << " flits=" << m.flit_count()
       << " injected_at=" << m.injected_at
       << " age=" << now_ - m.injected_at << '\n';
  }
  if (live.size() > shown) {
    os << "    ... " << live.size() - shown << " more in-flight\n";
  }
  for (EndpointId e = 0; e < endpoints_.size(); ++e) {
    const EndpointState& ep = endpoints_[e];
    if (ep.injection.empty() && ep.delivery.empty() &&
        ep.assembling_flits == 0) {
      continue;
    }
    os << "    endpoint " << e << " @(" << ep.x << ',' << ep.y
       << "): injection_flits=" << ep.injection.size()
       << " injection_credits=" << credits_[ep.input]
       << " undelivered_msgs=" << ep.delivery.size()
       << " assembling_flits=" << ep.assembling_flits << '\n';
  }
  // Per-port buffer occupancy for congested routers. Each input port has a
  // single buffer (one virtual channel per port — VCs are unnecessary for
  // deadlock freedom under dimension-order routing); "N=4/4" therefore
  // reads as "the north input VC is full". Output state names the blocked
  // resource: a wormhole lock (`locked=<input port>`) holds the output for
  // an in-flight packet, and credits=0 means the downstream buffer is full.
  // Mesh outputs at the edge have no link and are not listed.
  const auto port_name = [](std::uint32_t p) -> std::string {
    switch (p) {
      case kPortNorth: return "N";
      case kPortSouth: return "S";
      case kPortEast: return "E";
      case kPortWest: return "W";
      default: return "L" + std::to_string(p - kFirstLocalPort);
    }
  };
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    const Router& r = routers_[ri];
    if (r.buffered_flits() == 0) continue;
    os << "    router (" << r.x() << ',' << r.y() << "): buffered_flits="
       << r.buffered_flits() << " in=[";
    for (std::uint32_t p = 0; p < r.num_ports(); ++p) {
      os << (p == 0 ? "" : " ") << port_name(p) << '='
         << r.buffer_occupancy(p) << '/' << NocParams::input_buffer_flits;
    }
    os << "]\n";
    for (std::uint32_t p = 0; p < r.num_ports(); ++p) {
      const Router::OutputState& out = r.outputs_[p];
      const bool is_mesh_out = p < kFirstLocalPort;
      const std::uint32_t to = is_mesh_out ? next_input_[ri * kMaxPorts + p]
                                           : kNoLink;
      if (is_mesh_out && to == kNoLink) continue;
      const bool credit_starved = is_mesh_out && credits_[to] == 0;
      if (out.locked_input < 0 && !credit_starved) continue;
      os << "      out " << port_name(p) << ": ";
      if (out.locked_input >= 0) {
        os << "locked=" << port_name(static_cast<std::uint32_t>(
                               out.locked_input));
      } else {
        os << "unlocked";
      }
      if (is_mesh_out) {
        os << " credits=" << credits_[to]
           << (credit_starved ? " (downstream full)" : "");
      }
      os << '\n';
    }
  }
}

std::uint32_t MeshNetwork::hops_between(EndpointId a, EndpointId b) const {
  const EndpointState& ea = endpoints_.at(a);
  const EndpointState& eb = endpoints_.at(b);
  const auto dx = ea.x > eb.x ? ea.x - eb.x : eb.x - ea.x;
  const auto dy = ea.y > eb.y ? ea.y - eb.y : eb.y - ea.y;
  return dx + dy;
}

}  // namespace gnna::noc
