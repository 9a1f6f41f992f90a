// Wormhole mesh router with credit-based flow control.
//
// Port layout: 0..3 are the mesh directions (N, S, E, W); ports 4.. are
// local ports, one per attached endpoint. A GNN accelerator tile therefore
// *is* one of these routers with three local ports (GPE, AGG, DNQ/DNA) —
// the "64B wide 7x7 crossbar switch" of Fig 3 — and a memory node is a
// router with a single local port.
//
// Timing (Table IV): routing delay 1 cycle (input buffer -> crossbar) and
// link delay 1 cycle (crossbar -> downstream buffer), modeled as a two-phase
// tick; input buffers hold 4 flits (256B); routing is minimal
// dimension-order XY, which is deadlock-free on a mesh.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"

namespace gnna::noc {

/// Table IV parameters.
struct NocParams {
  std::uint32_t input_buffer_flits = 4;           // 4 flits = 256B
  static constexpr std::uint32_t link_delay = 1;  // cycles
};

inline constexpr std::uint32_t kPortNorth = 0;
inline constexpr std::uint32_t kPortSouth = 1;
inline constexpr std::uint32_t kPortEast = 2;
inline constexpr std::uint32_t kPortWest = 3;
inline constexpr std::uint32_t kFirstLocalPort = 4;

class MeshNetwork;

/// One router in the mesh. Owned and ticked by MeshNetwork.
class Router {
 public:
  Router(std::uint32_t x, std::uint32_t y, std::uint32_t num_local_ports,
         const NocParams& params);

  [[nodiscard]] std::uint32_t x() const { return x_; }
  [[nodiscard]] std::uint32_t y() const { return y_; }
  [[nodiscard]] std::uint32_t num_ports() const {
    return kFirstLocalPort + num_local_;
  }

  /// True if input buffer `port` can accept a flit this cycle.
  [[nodiscard]] bool can_accept(std::uint32_t port) const {
    return buffers_[port].size() < params_.input_buffer_flits;
  }

  /// Deposit a flit into input buffer `port` (caller must hold a credit).
  void accept(std::uint32_t port, const Flit& flit) {
    buffers_[port].push_back(flit);
    ++buffered_flits_;
  }

  /// Total flits across all input buffers (fast idle check).
  [[nodiscard]] std::uint32_t buffered_flits() const {
    return buffered_flits_;
  }

  [[nodiscard]] std::size_t buffer_occupancy(std::uint32_t port) const {
    return buffers_[port].size();
  }

 private:
  friend class MeshNetwork;

  struct OutputState {
    // Wormhole: the input port currently holding this output, or -1.
    int locked_input = -1;
    // Round-robin arbitration pointer.
    std::uint32_t rr_next = 0;
    // Credits available at the downstream input buffer (mesh ports only;
    // local/ejection ports are rate-limited, not credited).
    std::uint32_t credits = 0;
    // Whether this output already forwarded a flit this cycle.
    bool busy_this_cycle = false;
    BusyTracker busy;
  };

  std::uint32_t x_;
  std::uint32_t y_;
  std::uint32_t num_local_;
  NocParams params_;
  std::uint32_t buffered_flits_ = 0;
  std::vector<std::deque<Flit>> buffers_;  // per input port
  std::vector<OutputState> outputs_;       // per output port
  // Per-cycle crossbar scratch: an input port has one crossbar connection,
  // so at most one flit may leave it per cycle. Cleared each phase_route.
  std::vector<std::uint8_t> input_moved_;
};

}  // namespace gnna::noc
