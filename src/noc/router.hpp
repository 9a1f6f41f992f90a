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
// dimension-order XY, which is deadlock-free on a mesh. Arbitration is
// input-first (DESIGN.md §18): each input's front flit requests one output
// and every output picks among its requesters with bitmask operations.
// The credits that guard each input buffer, and the links between routers,
// live in MeshNetwork's port graph, keyed by input id.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "noc/message.hpp"

namespace gnna::noc {

/// Table IV parameters. Both are fixed by the paper, so they are
/// compile-time constants; the struct keeps the config's shape.
struct NocParams {
  static constexpr std::uint32_t input_buffer_flits = 4;  // 4 flits = 256B
  static constexpr std::uint32_t link_delay = 1;          // cycles
};

inline constexpr std::uint32_t kPortNorth = 0;
inline constexpr std::uint32_t kPortSouth = 1;
inline constexpr std::uint32_t kPortEast = 2;
inline constexpr std::uint32_t kPortWest = 3;
inline constexpr std::uint32_t kFirstLocalPort = 4;
/// Arbitration keeps one bit per port in a 32-bit mask. An input buffer's
/// id in the network is router index * kMaxPorts + port.
inline constexpr std::uint32_t kMaxPorts = 32;

class MeshNetwork;

/// One router in the mesh. Owned and ticked by MeshNetwork.
class Router {
 public:
  Router(std::uint32_t x, std::uint32_t y, std::uint32_t num_local_ports);

  [[nodiscard]] std::uint32_t x() const { return x_; }
  [[nodiscard]] std::uint32_t y() const { return y_; }
  [[nodiscard]] std::uint32_t num_ports() const {
    return kFirstLocalPort + num_local_;
  }

  /// True if input buffer `port` can accept a flit this cycle.
  [[nodiscard]] bool can_accept(std::uint32_t port) const {
    return buffers_[port].size < NocParams::input_buffer_flits;
  }

  /// Deposit a flit into input buffer `port` (caller must hold a credit).
  void accept(std::uint32_t port, const Flit& flit) {
    buffers_[port].push(flit);
    occupied_ |= 1U << port;
  }

  /// Total flits across all input buffers.
  [[nodiscard]] std::uint32_t buffered_flits() const {
    std::uint32_t n = 0;
    for (const InputBuffer& b : buffers_) n += b.size;
    return n;
  }

  [[nodiscard]] std::size_t buffer_occupancy(std::uint32_t port) const {
    return buffers_[port].size;
  }

 private:
  friend class MeshNetwork;

  /// One input port's flit FIFO: a ring of the Table IV capacity.
  struct InputBuffer {
    static constexpr std::uint32_t kCapacity = NocParams::input_buffer_flits;
    std::array<Flit, kCapacity> slots;
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    [[nodiscard]] const Flit& front() const { return slots[head]; }
    void push(const Flit& f) { slots[(head + size++) % kCapacity] = f; }
    void pop() {
      head = (head + 1) % kCapacity;
      --size;
    }
  };

  struct OutputState {
    // Wormhole: the input port currently holding this output, or -1.
    int locked_input = -1;
    // Round-robin arbitration pointer.
    std::uint32_t rr_next = 0;
  };

  std::uint32_t x_;
  std::uint32_t y_;
  std::uint32_t num_local_;
  std::uint32_t occupied_ = 0;        // bit p: buffers_[p] is non-empty
  std::vector<InputBuffer> buffers_;  // per input port
  std::vector<OutputState> outputs_;  // per output port
};

}  // namespace gnna::noc
