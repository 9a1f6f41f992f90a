// Core identifier and time types shared across the gnna library.
//
// Every module in the simulator speaks in these vocabulary types rather than
// raw integers so that interfaces are self-documenting and so unit mistakes
// (cycles vs nanoseconds, node ids vs tile ids) are hard to make.
#pragma once

#include <cstdint>
#include <limits>

namespace gnna {

/// Simulation time in clock cycles of the component's own clock domain.
using Cycle = std::uint64_t;

/// A count of clock cycles (duration rather than timestamp).
using CycleCount = std::uint64_t;

/// Graph vertex index. Graphs in the evaluation reach ~20k vertices
/// (Pubmed), but synthetic sweeps may go higher, so 32 bits.
using NodeId = std::uint32_t;

/// Graph edge index.
using EdgeId = std::uint32_t;

/// Index of a tile in the accelerator mesh.
using TileId = std::uint16_t;

/// Flat NoC endpoint id (routers are addressed by (x, y); endpoints by id).
using EndpointId = std::uint16_t;

/// Byte address in the simulated flat physical address space.
using Addr = std::uint64_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel for "no endpoint".
inline constexpr EndpointId kInvalidEndpoint =
    std::numeric_limits<EndpointId>::max();

/// Sentinel timestamp meaning "never" / "not scheduled".
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

}  // namespace gnna
