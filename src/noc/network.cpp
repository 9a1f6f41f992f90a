#include "noc/network.hpp"

#include <algorithm>
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

Router::Router(std::uint32_t x, std::uint32_t y, std::uint32_t num_local_ports,
               const NocParams& params)
    : x_(x), y_(y), num_local_(num_local_ports), params_(params) {
  buffers_.resize(num_ports());
  outputs_.resize(num_ports());
  input_moved_.resize(num_ports(), 0);
}

MeshNetwork::MeshNetwork(std::uint32_t width, std::uint32_t height,
                         NocParams params)
    : width_(width), height_(height), params_(params) {
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
      routers_.emplace_back(x, y, local_ports_per_router_[router_index(x, y)],
                            params_);
    }
  }
  // Mesh link credits: each output that has a neighbor starts with the
  // neighbor's full input buffer.
  for (auto& r : routers_) {
    if (r.y() + 1 < height_) r.outputs_[kPortNorth].credits = params_.input_buffer_flits;
    if (r.y() > 0) r.outputs_[kPortSouth].credits = params_.input_buffer_flits;
    if (r.x() + 1 < width_) r.outputs_[kPortEast].credits = params_.input_buffer_flits;
    if (r.x() > 0) r.outputs_[kPortWest].credits = params_.input_buffer_flits;
  }
  for (auto& ep : endpoints_) {
    ep.injection_credits = params_.input_buffer_flits;
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
  inflight_.emplace(msg.seq, msg);
  stats_.packets_sent.add();
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
  while (!credits_.empty() && credits_.front().ready_at <= now_) {
    const CreditReturn& cr = credits_.front();
    if (cr.to_endpoint) {
      ++endpoints_[cr.endpoint].injection_credits;
    } else {
      ++routers_[cr.router].outputs_[cr.port].credits;
    }
    credits_.pop_front();
  }
}

void MeshNetwork::return_credit_for_input(std::uint32_t router,
                                          std::uint32_t port) {
  CreditReturn cr;
  cr.ready_at = now_ + 1;
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
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    Router& r = routers_[ri];
    if (r.buffered_flits_ == 0) continue;  // nothing to arbitrate
    for (auto& out : r.outputs_) out.busy_this_cycle = false;
    std::fill(r.input_moved_.begin(), r.input_moved_.end(),
              static_cast<std::uint8_t>(0));

    // Gather head-of-line requests: input -> desired output.
    const std::uint32_t ports = r.num_ports();
    for (std::uint32_t o = 0; o < ports; ++o) {
      Router::OutputState& out = r.outputs_[o];
      if (out.busy_this_cycle) continue;

      // Pick the winning input for output o. An input that already
      // forwarded a flit this cycle is out of the running: each input
      // port drives one crossbar connection per cycle.
      int winner = -1;
      if (out.locked_input >= 0) {
        const auto i = static_cast<std::uint32_t>(out.locked_input);
        if (r.input_moved_[i] == 0 && !r.buffers_[i].empty() &&
            route(r, r.buffers_[i].front().dst) == o) {
          winner = out.locked_input;
        }
      } else {
        for (std::uint32_t step = 0; step < ports; ++step) {
          const std::uint32_t i = (out.rr_next + step) % ports;
          if (r.input_moved_[i] != 0) continue;
          if (r.buffers_[i].empty()) continue;
          const Flit& f = r.buffers_[i].front();
          if (!f.head) continue;  // body flits only follow a lock
          if (route(r, f.dst) != o) continue;
          winner = static_cast<int>(i);
          break;
        }
      }
      if (winner < 0) continue;

      const auto wi = static_cast<std::uint32_t>(winner);
      const Flit f = r.buffers_[wi].front();

      const bool is_mesh_out = o < kFirstLocalPort;
      if (is_mesh_out) {
        if (out.credits == 0) continue;  // stall: keep lock and rr_next
        --out.credits;
      }

      // Commit the move. The round-robin pointer advances only here — a
      // grant that stalled on credits keeps its priority next cycle
      // instead of silently rotating past a starved input.
      r.buffers_[wi].pop_front();
      --r.buffered_flits_;
      out.busy_this_cycle = true;
      r.input_moved_[wi] = 1;
      if (out.locked_input < 0) out.rr_next = (wi + 1) % ports;
      if (f.head) out.locked_input = winner;
      if (f.tail) out.locked_input = -1;
      return_credit_for_input(ri, wi);

      LinkEntry le;
      le.ready_at = now_ + params_.link_delay;
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
      out.busy.tick(true);
    }
  }
}

void MeshNetwork::phase_arrive() {
  // links_ is sorted by ready_at because link_delay is constant.
  std::size_t n = links_.size();
  while (n-- > 0 && !links_.empty() && links_.front().ready_at <= now_) {
    const LinkEntry le = links_.front();
    links_.pop_front();
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
}

void MeshNetwork::phase_inject() {
  for (EndpointId e = 0; e < endpoints_.size(); ++e) {
    EndpointState& ep = endpoints_[e];
    if (ep.injection.empty() || ep.injection_credits == 0) continue;
    const Flit f = ep.injection.front();
    ep.injection.pop_front();
    --ep.injection_credits;
    LinkEntry le;
    le.ready_at = now_ + params_.link_delay;
    le.flit = f;
    le.dst_router = router_index(ep.x, ep.y);
    le.dst_port = ep.local_port;
    links_.push_back(le);
  }
}

void MeshNetwork::tick() {
  finalize();
  if (quiescent()) {
    ++now_;
    return;
  }
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
         << r.buffer_occupancy(p) << '/' << params_.input_buffer_flits;
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
