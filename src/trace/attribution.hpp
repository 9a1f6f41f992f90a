// Per-vertex / per-tile work attribution — a TraceSink that answers
// "which vertices and tiles are hot, and why" (DESIGN.md §13).
//
// The profiler (profiler.hpp) aggregates by phase and unit *category*;
// this sink aggregates by *owner*: every GPE span is charged to the tile
// that ran it and the vertex it computed, every delivered NoC packet to
// the tile endpoint it touched and the work item whose data it carried
// (noc::Message::owner), and AGG reduce occupancy to the entry's owner via
// the charge() hook. Both are exact: one fixed array per tile and one dense
// row per owner, indexed by id. Owners are vertex ids, or graph ids in
// per-graph phases, so a table of the program's vertex count covers both.
//
// Conservation invariant (tested): per-tile `busy` sums every kGpe
// complete duration — the same event set the profiler folds into its
// per-phase busy[gpe] totals — so sum(tiles.busy) equals the profiler's
// GPE busy summed over phases exactly. Per-vertex busy counts only the
// top-level "task" spans to avoid double-charging the nested
// traverse/body sub-spans, so it sums to the profiler's flame "task" total.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace gnna::trace {

/// Owner id meaning "no owner" (weight preloads, control traffic).
/// Matches noc::kNoOwner without depending on the noc headers.
inline constexpr std::uint32_t kUnowned = 0xffffffffU;

/// Exact per-tile totals.
struct TileAttribution {
  double busy = 0.0;      // GPE complete cycles (task + sub-spans)
  double agg_busy = 0.0;  // AGG reduce occupancy charged to this tile
  std::uint64_t tasks = 0;
  std::uint64_t flits = 0;      // flits of packets touching this tile
  std::uint64_t flit_hops = 0;  // sum over packets of flits * hops
  std::uint64_t bytes = 0;
};

/// Exact totals of one owner (a vertex, or a graph in per-graph phases).
struct VertexHotspot {
  std::uint32_t vertex = 0;
  double busy = 0.0;
  double agg_busy = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t flits = 0;
  std::uint64_t bytes = 0;
};

struct AttributionReport {
  double span = 0.0;        // cycles covered by phase markers
  double total_busy = 0.0;  // sum of per-tile busy
  std::uint64_t unattributed_flits = 0;  // delivered flits with no owner
  std::vector<TileAttribution> tiles;
  std::vector<VertexHotspot> vertices;  // charged owners, busy desc then id

  /// Imbalance: max over tiles of busy divided by the mean (1.0 =
  /// perfectly balanced; 0 when no tile did work).
  [[nodiscard]] double busy_max_mean() const;
  /// Gini coefficient of per-tile flit counts (0 = uniform, →1 = one
  /// tile carries everything).
  [[nodiscard]] double flit_gini() const;
  /// The per-vertex rows as the dense loads profile-guided partitioning
  /// packs for a run of `num_vertices` vertices: entry v is vertex v's busy
  /// cycles, 0 for vertices no event charged. Throws
  /// std::invalid_argument when a row names a vertex past the run's
  /// (a profile of another workload).
  [[nodiscard]] std::vector<double> vertex_busy(
      std::size_t num_vertices) const;
};

/// The sink. Single-run, single-threaded (each AcceleratorSim owns its
/// own instance and fans events in via TeeSink).
class Attribution final : public TraceSink {
 public:
  /// `ep_to_tile` maps NoC endpoint id -> owning tile, with kNoTile for
  /// endpoints that are not tile-attached (memory controllers). Owner ids
  /// must be below `num_owners` (the program's vertex count).
  static constexpr std::uint32_t kNoTile = 0xffffffffU;
  Attribution(std::uint32_t num_tiles, std::vector<std::uint32_t> ep_to_tile,
              std::size_t num_owners);

  void complete(Category cat, std::uint32_t unit, const char* name,
                double start, double dur, std::uint64_t a,
                std::uint64_t b) override;
  void instant(Category, std::uint32_t, const char*, double, std::uint64_t,
               std::uint64_t) override {}
  void counter(Category, std::uint32_t, const char*, double, double) override {
  }
  void phase_begin(const char* name, double at) override;
  void phase_end(const char* name, double at) override;
  void packet(std::uint32_t src_ep, std::uint32_t dst_ep, std::uint32_t owner,
              std::uint32_t flits, std::uint32_t hops,
              std::uint32_t payload_bytes) override;
  void charge(Category cat, std::uint32_t unit, std::uint32_t owner,
              double cycles) override;

  /// Snapshot totals; every owner some event charged, sorted by busy
  /// desc then id.
  [[nodiscard]] AttributionReport report() const;

 private:
  /// The row of `owner`, marked as charged.
  VertexHotspot& row(std::uint32_t owner);

  std::vector<std::uint32_t> ep_to_tile_;
  std::vector<TileAttribution> tiles_;
  // One row per owner id; `vertex` stays kUnowned until an event charges it.
  std::vector<VertexHotspot> owners_;
  std::uint64_t unattributed_flits_ = 0;
  double span_begin_ = 0.0;
  double span_end_ = 0.0;
  bool span_started_ = false;
};

}  // namespace gnna::trace
