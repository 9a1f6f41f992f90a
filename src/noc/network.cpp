#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace gnna::noc {
namespace {

/// Opposite mesh direction (for credit returns across a link).
[[nodiscard]] std::uint32_t opposite(std::uint32_t port) {
  switch (port) {
    case kPortNorth:
      return kPortSouth;
    case kPortSouth:
      return kPortNorth;
    case kPortEast:
      return kPortWest;
    case kPortWest:
      return kPortEast;
    default:
      return port;
  }
}

/// Static names for send-side instant events (tracer names are not copied).
[[nodiscard]] constexpr const char* send_event_name(MsgKind k) {
  switch (k) {
    case MsgKind::kGeneric: return "send:generic";
    case MsgKind::kMemReadReq: return "send:mem_read_req";
    case MsgKind::kMemReadResp: return "send:mem_read_resp";
    case MsgKind::kMemWriteReq: return "send:mem_write_req";
    case MsgKind::kDnqWrite: return "send:dnq_write";
    case MsgKind::kDnaResult: return "send:dna_result";
    case MsgKind::kAggWrite: return "send:agg_write";
    case MsgKind::kAggResult: return "send:agg_result";
    case MsgKind::kControl: return "send:control";
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
  ep.local_port = kFirstLocalPort + local_ports_per_router_[router_index(x, y)];
  ++local_ports_per_router_[router_index(x, y)];
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
  // Mesh link credits: each output that has a neighbor starts with the
  // neighbor's full input buffer.
  constexpr std::uint32_t kCredits = NocParams::input_buffer_flits;
  for (auto& r : routers_) {
    if (r.y() + 1 < height_) r.outputs_[kPortNorth].credits = kCredits;
    if (r.y() > 0) r.outputs_[kPortSouth].credits = kCredits;
    if (r.x() + 1 < width_) r.outputs_[kPortEast].credits = kCredits;
    if (r.x() > 0) r.outputs_[kPortWest].credits = kCredits;
  }
  for (auto& ep : endpoints_) ep.injection_credits = kCredits;
  injecting_.assign((endpoints_.size() + 63) / 64, 0);
  // Routing table: dimension-order routes are fixed by the topology, so
  // each (router, destination) pair is routed once, here.
  port_of_.resize(routers_.size() * endpoints_.size());
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    for (EndpointId d = 0; d < endpoints_.size(); ++d) {
      port_of_[ri * endpoints_.size() + d] =
          static_cast<std::uint8_t>(route(routers_[ri], d));
    }
  }
  // Credit-return map: local input port -> owning endpoint, so the hot
  // path needs no O(endpoints) scan.
  local_port_owner_.resize(routers_.size());
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    local_port_owner_[ri].assign(local_ports_per_router_[ri],
                                 kInvalidEndpoint);
  }
  for (EndpointId e = 0; e < endpoints_.size(); ++e) {
    const EndpointState& ep = endpoints_[e];
    local_port_owner_[router_index(ep.x, ep.y)]
                     [ep.local_port - kFirstLocalPort] = e;
  }
}

void MeshNetwork::send(Message msg) {
  finalize();
  if (msg.src >= endpoints_.size() || msg.dst >= endpoints_.size()) {
    throw std::out_of_range("MeshNetwork::send: bad endpoint");
  }
  msg.seq = next_seq_++;
  msg.injected_at = now_;
  const std::uint32_t flits = msg.flit_count();
  EndpointState& src = endpoints_[msg.src];
  for (std::uint32_t i = 0; i < flits; ++i) {
    Flit f;
    f.seq = msg.seq;
    f.dst = msg.dst;
    f.index = i;
    f.head = (i == 0);
    f.tail = (i == flits - 1);
    src.injection.push_back(f);
  }
  injecting_[msg.src / 64] |= std::uint64_t{1} << (msg.src % 64);
  inflight_.emplace(msg.seq, msg);
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
  return d.local_port;
}

void MeshNetwork::apply_credits() {
  for (const CreditReturn& cr : credits_due_) {
    if (cr.to_endpoint) {
      ++endpoints_[cr.endpoint].injection_credits;
    } else {
      ++routers_[cr.router].outputs_[cr.port].credits;
    }
  }
  credits_due_.clear();
}

void MeshNetwork::return_credit_for_input(std::uint32_t router,
                                          std::uint32_t port) {
  CreditReturn cr;
  const Router& r = routers_[router];
  if (port >= kFirstLocalPort) {
    // Local input: credit goes back to the endpoint occupying that port
    // (precomputed in finalize()).
    const EndpointId e = local_port_owner_[router][port - kFirstLocalPort];
    assert(e != kInvalidEndpoint && "local input port without endpoint");
    cr.to_endpoint = true;
    cr.endpoint = e;
    credits_.push_back(cr);
    return;
  }
  // Mesh input: upstream router's matching output regains a credit.
  std::uint32_t ux = r.x();
  std::uint32_t uy = r.y();
  switch (port) {
    case kPortNorth:
      uy += 1;  // flit came from the router above, via its South output
      break;
    case kPortSouth:
      uy -= 1;
      break;
    case kPortEast:
      ux += 1;
      break;
    case kPortWest:
      ux -= 1;
      break;
    default:
      break;
  }
  cr.router = router_index(ux, uy);
  cr.port = opposite(port);
  credits_.push_back(cr);
}

void MeshNetwork::phase_route() {
  const std::size_t num_eps = endpoints_.size();
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    Router& r = routers_[ri];
    if (r.occupied_ == 0) continue;  // nothing to arbitrate
    const std::uint8_t* port_of = &port_of_[ri * num_eps];

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

      const bool is_mesh_out = o < kFirstLocalPort;
      if (is_mesh_out) {
        if (out.credits == 0) continue;  // stall: keep lock and rr_next
        --out.credits;
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
      return_credit_for_input(ri, wi);

      LinkEntry le;
      le.flit = f;
      if (is_mesh_out) {
        std::uint32_t nx = r.x();
        std::uint32_t ny = r.y();
        switch (o) {
          case kPortNorth:
            ny += 1;
            break;
          case kPortSouth:
            ny -= 1;
            break;
          case kPortEast:
            nx += 1;
            break;
          case kPortWest:
            nx -= 1;
            break;
          default:
            break;
        }
        le.dst_router = router_index(nx, ny);
        le.dst_port = opposite(o);
        stats_.flit_hops.add();
      } else {
        le.to_endpoint = true;
        le.endpoint = f.dst;
      }
      links_.push_back(le);
    }
  }
}

void MeshNetwork::phase_arrive() {
  // Push order (routers ascending, outputs ascending, then injections) is
  // arrival order, so endpoint deliveries and trace events keep it.
  for (const LinkEntry& le : links_due_) {
    if (le.to_endpoint) {
      EndpointState& ep = endpoints_[le.endpoint];
      ++ep.assembling_flits;
      stats_.flits_delivered.add();
      if (le.flit.tail) {
        auto it = inflight_.find(le.flit.seq);
        assert(it != inflight_.end());
        Message m = it->second;
        inflight_.erase(it);
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
                           (std::uint64_t{m.src} << 32) | m.dst,
                           m.payload_bytes);
          // Attribution hook: flits, hop distance, and the owning work
          // item of the delivered packet.
          tracer_.packet(m.src, m.dst, m.owner, m.flit_count(),
                         hops_between(m.src, m.dst), m.payload_bytes);
        }
        ep.delivery.push_back(m);
      }
    } else {
      Router& dr = routers_[le.dst_router];
      assert(dr.can_accept(le.dst_port) && "credit protocol violated");
      dr.accept(le.dst_port, le.flit);
    }
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
      if (ep.injection_credits == 0) continue;
      const Flit f = ep.injection.front();
      ep.injection.pop_front();
      if (ep.injection.empty()) injecting_[w] &= ~(std::uint64_t{1} << e % 64);
      --ep.injection_credits;
      LinkEntry le;
      le.flit = f;
      le.dst_router = router_index(ep.x, ep.y);
      le.dst_port = ep.local_port;
      links_.push_back(le);
    }
  }
}

void MeshNetwork::tick() {
  finalize();
  if (quiescent()) {
    ++now_;
    return;
  }
  // Everything made last tick falls due now (link_delay == 1).
  links_.swap(links_due_);
  credits_.swap(credits_due_);
  apply_credits();
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
  // inflight_ holds every packet from send() until tail ejection, so an
  // empty map already implies empty router buffers and injection queues;
  // delivery queues hold packets the components have not consumed yet.
  if (!links_.empty() || !inflight_.empty()) return false;
  for (const auto& ep : endpoints_) {
    if (!ep.delivery.empty()) return false;
  }
  return true;
}

void MeshNetwork::dump_state(std::ostream& os) const {
  os << "  noc: cycle=" << now_ << " inflight_packets=" << inflight_.size()
     << " links_in_flight=" << links_.size()
     << " pending_credits=" << credits_.size() << '\n';
  std::size_t shown = 0;
  for (const auto& [seq, m] : inflight_) {
    if (shown == 16) {
      os << "    ... " << inflight_.size() - shown << " more in-flight\n";
      break;
    }
    ++shown;
    os << "    packet seq=" << seq << ' ' << msg_kind_name(m.kind)
       << " src=" << m.src << " dst=" << m.dst << " flits=" << m.flit_count()
       << " injected_at=" << m.injected_at
       << " age=" << now_ - m.injected_at << '\n';
  }
  for (EndpointId e = 0; e < endpoints_.size(); ++e) {
    const EndpointState& ep = endpoints_[e];
    if (ep.injection.empty() && ep.delivery.empty() &&
        ep.assembling_flits == 0) {
      continue;
    }
    os << "    endpoint " << e << " @(" << ep.x << ',' << ep.y
       << "): injection_flits=" << ep.injection.size()
       << " injection_credits=" << ep.injection_credits
       << " undelivered_msgs=" << ep.delivery.size()
       << " assembling_flits=" << ep.assembling_flits << '\n';
  }
  // Per-port buffer occupancy for congested routers. Each input port has a
  // single buffer (one virtual channel per port — VCs are unnecessary for
  // deadlock freedom under dimension-order routing); "N=4/4" therefore
  // reads as "the north input VC is full". Output state names the blocked
  // resource: a wormhole lock (`locked=<input port>`) holds the output for
  // an in-flight packet, and credits=0 means the downstream buffer is full.
  const auto port_name = [](std::uint32_t p) -> std::string {
    switch (p) {
      case kPortNorth: return "N";
      case kPortSouth: return "S";
      case kPortEast: return "E";
      case kPortWest: return "W";
      default: return "L" + std::to_string(p - kFirstLocalPort);
    }
  };
  for (const Router& r : routers_) {
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
      const bool credit_starved = p < kFirstLocalPort && out.credits == 0;
      if (out.locked_input < 0 && !credit_starved) continue;
      os << "      out " << port_name(p) << ": ";
      if (out.locked_input >= 0) {
        os << "locked=" << port_name(static_cast<std::uint32_t>(
                               out.locked_input));
      } else {
        os << "unlocked";
      }
      if (p < kFirstLocalPort) {
        os << " credits=" << out.credits
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
