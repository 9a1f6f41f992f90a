// Cycle-accurate 2D-mesh network (the Booksim substitute).
//
// MeshNetwork owns the routers, the inter-router links (one-cycle delay
// lines), the endpoints, and the port graph. Components interact only
// through send() / poll() on their EndpointId plus the global tick().
//
// Port graph (DESIGN.md §18): every router input buffer has one id, router
// * kMaxPorts + port, and finalize() builds credits_[input] (the sender's
// credits for that buffer) and next_input_ (the input across each link).
//
// Flow control: wormhole with credit-based backpressure on every input
// buffer, injection included; ejection is rate-limited to one flit per
// cycle per local port and reassembled messages land in an unbounded
// delivery queue (components model their own admission limits — e.g. the
// memory controller's 32-entry queue — on top).
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"
#include "noc/router.hpp"
#include "trace/trace.hpp"

namespace gnna::noc {

/// Aggregate network statistics.
struct NocStats {
  Counter packets_delivered;
  Counter flits_delivered;
  Counter flit_hops;
  Accumulator packet_latency;  // injection -> tail ejection, cycles
};

class MeshNetwork {
 public:
  /// NocParams carries only compile-time constants (Table IV).
  MeshNetwork(std::uint32_t width, std::uint32_t height,
              NocParams params = {});

  /// Register an endpoint on the router at (x, y). Must precede finalize().
  /// A router takes at most kMaxPorts - kFirstLocalPort endpoints.
  EndpointId add_endpoint(std::uint32_t x, std::uint32_t y);

  /// Freeze topology, allocate routers and fill the routing table. Called
  /// implicitly by the first send()/tick() if needed.
  void finalize();

  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t height() const { return height_; }
  [[nodiscard]] std::size_t num_endpoints() const { return endpoints_.size(); }
  [[nodiscard]] Cycle now() const { return now_; }

  /// Inject a message (unbounded injection queue at the source endpoint;
  /// components that need backpressure check injection_queue_depth()).
  void send(Message msg);

  /// Retrieve the next fully-delivered message at `ep`, if any.
  [[nodiscard]] std::optional<Message> poll(EndpointId ep);

  /// Peek without consuming.
  [[nodiscard]] const Message* peek(EndpointId ep) const;

  [[nodiscard]] std::size_t delivery_queue_depth(EndpointId ep) const;
  [[nodiscard]] std::size_t injection_queue_depth(EndpointId ep) const;

  /// Advance one cycle. A quiescent network only advances its clock.
  void tick();

  /// True when no flit is buffered, on a link or awaiting injection and
  /// no credit is in flight: ticking would change nothing but the clock.
  /// Messages already delivered may still await poll().
  [[nodiscard]] bool quiescent() const {
    return links_.empty() && credit_returns_.empty() &&
           inflight_packets() == 0;
  }

  /// Earliest cycle >= `now` at which tick() could change state: `now`
  /// unless quiescent(), and then kNeverCycle, as only a send() can wake
  /// it.
  [[nodiscard]] Cycle next_event(Cycle now) const {
    return quiescent() ? kNeverCycle : now;
  }

  /// Call `f(ep)` for each endpoint that received a message since the
  /// last call, in ascending order, and forget them: the simulator wakes
  /// the units behind those endpoints (DESIGN.md §17).
  template <class F>
  void take_deliveries(F&& f) {
    for (std::size_t w = 0; w < delivered_.size(); ++w) {
      for (std::uint64_t m = std::exchange(delivered_[w], 0); m != 0;
           m &= m - 1) {
        f(static_cast<EndpointId>(w * 64 + std::countr_zero(m)));
      }
    }
  }

  /// Jump the clock forward to `t` (>= now()). Only valid while
  /// quiescent(), where it equals t - now() ticks.
  void skip_to(Cycle t);

  /// True when no flit is buffered, in flight, or awaiting injection and no
  /// message awaits delivery. Used by the runtime's global barriers.
  [[nodiscard]] bool idle() const;

  [[nodiscard]] const NocStats& stats() const { return stats_; }

  /// Attach an event tracer (packet send/deliver). Disabled by default.
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Stable pointer to the cycle counter, for stamping component tracers.
  [[nodiscard]] const Cycle* now_ptr() const { return &now_; }

  /// Packets injected but not yet fully ejected.
  [[nodiscard]] std::size_t inflight_packets() const {
    return packets_.size() - free_packets_.size();
  }

  /// Deadlock diagnostics: the 16 oldest in-flight packets, endpoint queue
  /// depths, and router buffer occupancy (only non-empty state is printed).
  void dump_state(std::ostream& os) const;

  /// Manhattan router distance between two endpoints.
  [[nodiscard]] std::uint32_t hops_between(EndpointId a, EndpointId b) const;

  [[nodiscard]] const Router& router_at(std::uint32_t x,
                                        std::uint32_t y) const {
    return routers_.at(router_index(x, y));
  }

 private:
  struct EndpointState {
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    std::uint32_t input = 0;       // input id of its local port
    std::deque<Flit> injection;    // segmented flits awaiting injection
    std::deque<Message> delivery;  // reassembled messages
    std::uint32_t assembling_flits = 0;  // flits of in-progress packet seen
  };

  // Link entries and credit returns fall due exactly one tick after they
  // are made, so no entry carries a timestamp.
  static_assert(NocParams::link_delay == 1,
                "the link and credit queues assume a one-cycle link");

  /// `to` in a LinkEntry for a flit leaving the mesh at endpoint flit.dst.
  static constexpr std::uint32_t kEject = 0xffffffffU;
  /// next_input_ entry of a mesh output with no neighbour.
  static constexpr std::uint32_t kNoLink = 0xffffffffU;

  struct LinkEntry {
    Flit flit;
    std::uint32_t to = kEject;  // input id, or kEject
  };

  [[nodiscard]] std::uint32_t router_index(std::uint32_t x,
                                           std::uint32_t y) const {
    return y * width_ + x;
  }

  /// Output port a flit at router (x, y) should take toward `dst` (XY
  /// dimension-order: X first, then Y, then the local port). Only
  /// finalize() calls it, to fill port_of_.
  [[nodiscard]] std::uint32_t route(const Router& r, EndpointId dst) const;

  void phase_route();
  void phase_arrive();
  void phase_inject();

  std::uint32_t width_;
  std::uint32_t height_;
  bool finalized_ = false;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 1;

  std::vector<Router> routers_;
  std::vector<std::uint32_t> local_ports_per_router_;
  // Input id -> the sender's credits for that buffer (the port graph).
  std::vector<std::uint32_t> credits_;
  // router * kMaxPorts + mesh output -> input id across that link, or
  // kNoLink at the mesh edge.
  std::vector<std::uint32_t> next_input_;
  // (router, destination endpoint) -> output port, row-major by router;
  // built by finalize() from route().
  std::vector<std::uint8_t> port_of_;
  std::vector<EndpointState> endpoints_;
  // Bit e set: endpoint e has flits awaiting injection.
  std::vector<std::uint64_t> injecting_;
  // Bit e set: endpoint e received a message since take_deliveries().
  std::vector<std::uint64_t> delivered_;
  // Flits on a link: made this tick (arrive next tick) / arriving now. A
  // push-ordered vector each; phase_arrive consumes links_due_ in order.
  std::vector<LinkEntry> links_;
  std::vector<LinkEntry> links_due_;
  // Credit returns made this tick, as the input id of each popped flit;
  // the next tick applies them before routing.
  std::vector<std::uint32_t> credit_returns_;
  // Packet slot pool: a flit carries its packet's slot; a delivered
  // packet's slot (seq reset to 0) goes on free_packets_ for reuse.
  std::vector<Message> packets_;
  std::vector<std::uint32_t> free_packets_;
  NocStats stats_;
  trace::Tracer tracer_;
};

// Inline: every unit polls its endpoints on every tick it runs.
inline std::optional<Message> MeshNetwork::poll(EndpointId ep) {
  EndpointState& e = endpoints_.at(ep);
  if (e.delivery.empty()) return std::nullopt;
  Message m = e.delivery.front();
  e.delivery.pop_front();
  return m;
}

inline const Message* MeshNetwork::peek(EndpointId ep) const {
  const EndpointState& e = endpoints_.at(ep);
  return e.delivery.empty() ? nullptr : &e.delivery.front();
}

inline std::size_t MeshNetwork::delivery_queue_depth(EndpointId ep) const {
  return endpoints_.at(ep).delivery.size();
}

}  // namespace gnna::noc
