// Message and flit types for the on-chip network.
//
// A Message is the unit components exchange (a memory request, a feature
// vector, an aggregation result...). The network segments it into 64-byte
// flits (Fig 3: 64B-wide crossbar and links), delivers the flits wormhole
// style, and reassembles the Message at the destination endpoint.
//
// Payload fields a/b/c are interpreted by the communicating components;
// the network never looks at them. This keeps the NoC generic (it is also
// used standalone by the NoC microbenchmarks) while avoiding type erasure
// on the hot path.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "common/units.hpp"

namespace gnna::noc {

/// Component-level message kinds. The NoC treats these as opaque tags; they
/// exist so endpoints can dispatch without a registry of callbacks.
enum class MsgKind : std::uint8_t {
  kGeneric = 0,
  kMemReadReq,    // a: address, b: bytes, c: requester tag
  kMemReadResp,   // a: address, b: bytes, c: requester tag
  kMemWriteReq,   // a: address, b: bytes
  kDnqWrite,      // a: queue entry handle, b: word offset, c: vertex
  kDnaResult,     // a: vertex, b: bytes, c: layer
  kAggWrite,      // a: aggregation handle, b: contribution index, c: vertex
  kAggResult,     // a: aggregation handle, c: vertex
  kControl,       // runtime configuration / barrier tokens
};

/// Stable short name, used by trace events and deadlock dumps.
[[nodiscard]] constexpr const char* msg_kind_name(MsgKind k) {
  switch (k) {
    case MsgKind::kGeneric: return "generic";
    case MsgKind::kMemReadReq: return "mem_read_req";
    case MsgKind::kMemReadResp: return "mem_read_resp";
    case MsgKind::kMemWriteReq: return "mem_write_req";
    case MsgKind::kDnqWrite: return "dnq_write";
    case MsgKind::kDnaResult: return "dna_result";
    case MsgKind::kAggWrite: return "agg_write";
    case MsgKind::kAggResult: return "agg_result";
    case MsgKind::kControl: return "control";
  }
  return "?";
}

/// Work-attribution owner id meaning "no owner" (weight preloads, control
/// traffic). Mirrors trace::kUnowned; the NoC itself never inspects it.
inline constexpr std::uint32_t kNoOwner = 0xffffffffU;

/// A component-to-component message.
struct Message {
  EndpointId src = kInvalidEndpoint;
  EndpointId dst = kInvalidEndpoint;
  std::uint32_t payload_bytes = 0;  // semantic size; flits = ceil(/64), min 1
  MsgKind kind = MsgKind::kGeneric;
  /// The global work item (vertex / graph id) whose computation this
  /// message serves, or kNoOwner. Carried end-to-end (responders echo the
  /// request's owner) purely for the attribution trace sink; the timing
  /// model never reads it.
  std::uint32_t owner = kNoOwner;
  /// For requests expecting a response: where the response should be sent.
  /// This is how the GPE's *indirect* asynchronous memory requests work —
  /// the GPE issues the read but the data lands directly in the AGG or DNQ
  /// (Section III). Responders use reply_to when valid, else src.
  EndpointId reply_to = kInvalidEndpoint;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  // Filled in by the network:
  std::uint64_t seq = 0;       // unique packet id
  Cycle injected_at = 0;       // cycle send() was called
  Cycle delivered_at = 0;      // cycle the tail flit was ejected

  [[nodiscard]] std::uint32_t flit_count() const {
    const std::uint32_t f = flits_for_bytes(payload_bytes);
    return f == 0 ? 1 : f;
  }
};

/// One 64-byte flow-control unit. `packet` is the owning Message's slot in
/// the network's packet pool, not its seq.
struct Flit {
  std::uint32_t packet = 0;
  EndpointId dst = kInvalidEndpoint;
  bool head = false;
  bool tail = false;
};
// Flits fill the injection deques and the input rings; keep them small.
static_assert(sizeof(Flit) <= 8);

}  // namespace gnna::noc
