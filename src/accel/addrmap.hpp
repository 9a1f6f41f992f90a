// Address-space interleaving across memory nodes, the Dest descriptor that
// tells a producing unit (AGG / DNA / GPE) where its result goes, and the
// two ways a tile unit puts traffic on the NoC: a result sent to its Dest,
// and a memory read split at page boundaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/message.hpp"
#include "noc/network.hpp"

namespace gnna::accel {

/// Maps physical addresses onto memory-node endpoints: page `interleave`
/// bytes wide, round-robin across controllers. Wide vertex-feature reads
/// stay within one page (one request to one controller) while successive
/// vertices spread across controllers.
class AddressMap {
 public:
  AddressMap(std::vector<EndpointId> mem_endpoints, std::uint64_t interleave)
      : mem_eps_(std::move(mem_endpoints)), interleave_(interleave) {}

  [[nodiscard]] EndpointId endpoint_for(Addr addr) const {
    return mem_eps_[(addr / interleave_) % mem_eps_.size()];
  }

  /// Split [addr, addr+bytes) at interleave boundaries and invoke
  /// fn(endpoint, addr, bytes) for each contiguous single-controller chunk.
  template <typename Fn>
  void for_each_segment(Addr addr, std::uint64_t bytes, Fn&& fn) const {
    while (bytes > 0) {
      const Addr page_end = (addr / interleave_ + 1) * interleave_;
      const std::uint64_t chunk =
          std::min<std::uint64_t>(bytes, page_end - addr);
      fn(endpoint_for(addr), addr, chunk);
      addr += chunk;
      bytes -= chunk;
    }
  }

  [[nodiscard]] std::size_t num_controllers() const { return mem_eps_.size(); }

 private:
  std::vector<EndpointId> mem_eps_;
  std::uint64_t interleave_;
};

/// Where a unit's result should be sent once complete. Configured at
/// allocation time (the paper's destination scratchpads).
struct Dest {
  enum class Kind : std::uint8_t {
    kNone,
    kMemWrite,  // write `bytes` at `addr`
    kDnqEntry,  // fill DNQ entry `handle` (same tile or remote)
    kAggEntry,  // contribute to AGG entry `handle`
  };
  Kind kind = Kind::kNone;
  EndpointId ep = kInvalidEndpoint;  // target NoC endpoint (DNQ/AGG dests)
  std::uint64_t handle = 0;          // DNQ/AGG entry handle
  Addr addr = 0;                     // memory destination

  /// Throws std::invalid_argument, naming `unit` (the allocating call),
  /// when a DNQ or AGG destination has no endpoint to send to.
  void check_endpoint(const char* unit) const {
    if ((kind == Kind::kDnqEntry || kind == Kind::kAggEntry) &&
        ep == kInvalidEndpoint) {
      throw std::invalid_argument(std::string(unit) +
                                  ": unit destination with invalid endpoint");
    }
  }
};

/// Send `bytes` of a result from endpoint `src` to `dest`, on behalf of
/// work item `owner` (attribution only): a memory write per page segment,
/// or one message filling a DNQ entry or contributing to an AGG entry.
inline void send_result(noc::MeshNetwork& net, const AddressMap& map,
                        EndpointId src, const Dest& dest, std::uint32_t bytes,
                        std::uint32_t owner) {
  noc::Message m;
  m.src = src;
  m.owner = owner;
  switch (dest.kind) {
    case Dest::Kind::kNone:
      return;
    case Dest::Kind::kMemWrite:
      m.kind = noc::MsgKind::kMemWriteReq;
      map.for_each_segment(dest.addr, bytes,
                           [&](EndpointId mem_ep, Addr a, std::uint64_t seg) {
                             m.dst = mem_ep;
                             m.payload_bytes = static_cast<std::uint32_t>(seg);
                             m.a = a;
                             m.b = seg;
                             net.send(m);
                           });
      return;
    case Dest::Kind::kDnqEntry:
    case Dest::Kind::kAggEntry:
      m.dst = dest.ep;
      m.kind = dest.kind == Dest::Kind::kDnqEntry ? noc::MsgKind::kDnqWrite
                                                  : noc::MsgKind::kAggWrite;
      m.payload_bytes = bytes;
      m.a = dest.handle;
      net.send(m);
      return;
  }
}

/// Read [addr, addr + bytes) on behalf of endpoint `src`: one request per
/// page segment, each answered at `reply_to` (at `src` when that is
/// kInvalidEndpoint) with `tag` echoed, on behalf of work item `owner`
/// (attribution only). Returns the number of requests sent.
inline std::uint32_t send_read(noc::MeshNetwork& net, const AddressMap& map,
                               EndpointId src, EndpointId reply_to, Addr addr,
                               std::uint64_t bytes, std::uint64_t tag,
                               std::uint32_t owner) {
  noc::Message m;
  m.src = src;
  m.reply_to = reply_to;
  m.kind = noc::MsgKind::kMemReadReq;  // a header-only request: one flit
  m.owner = owner;
  m.c = tag;
  std::uint32_t segments = 0;
  map.for_each_segment(addr, bytes,
                       [&](EndpointId mem_ep, Addr a, std::uint64_t seg) {
                         m.dst = mem_ep;
                         m.a = a;
                         m.b = seg;
                         net.send(m);
                         ++segments;
                       });
  return segments;
}

/// Tag marking DNA weight-fill responses on the DNQ/DNA endpoint.
inline constexpr std::uint64_t kWeightTag = std::uint64_t{1} << 63;

}  // namespace gnna::accel
