// Compiled accelerator programs.
//
// The ProgramCompiler lowers a gnn::ModelSpec running on a graph::Dataset
// into a sequence of PhaseSpecs — the unit Algorithm 1 iterates: each phase
// configures the DNQ/AGG/DNA (line 14), runs one vertex program for every
// vertex (lines 16-20), and ends with a global barrier (line 22). A GNN
// layer lowers to one or more phases (e.g. GAT needs a projection phase
// before its attention phase; PGNN's A^(2^j) powers become repeated 1-hop
// aggregation phases).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "common/reduce_op.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "dataflow/spatial.hpp"
#include "graph/dataset.hpp"
#include "graph/partition.hpp"

namespace gnna::accel {

using RegionId = std::uint32_t;

/// A named range of the simulated physical address space. `preloaded`
/// marks regions the loader fills before the program starts (topology,
/// input features, weights); the static verifier treats every other
/// region as undefined until some phase writes it.
struct Region {
  std::string name;
  Addr base = 0;
  std::uint64_t bytes = 0;
  bool preloaded = false;
};

/// Flat address space, page-interleaved across memory nodes by the
/// simulator. Regions are 64B-aligned so buffers never share a DRAM line.
class MemoryMap {
 public:
  RegionId add_region(std::string name, std::uint64_t bytes,
                      bool preloaded = false) {
    // The cursor rounds up to the next 64B line; reject any request whose
    // rounded-up end would wrap the 64-bit address space (the wrapped
    // cursor would silently overlap every earlier region).
    constexpr Addr kMaxAddr = ~Addr{0};
    if (bytes > kMaxAddr - next_ || next_ + bytes > kMaxAddr - 63) {
      throw std::overflow_error("MemoryMap::add_region: region '" + name +
                                "' (" + std::to_string(bytes) +
                                " bytes) overflows the address space");
    }
    Region r;
    r.name = std::move(name);
    r.base = next_;
    r.bytes = bytes;
    r.preloaded = preloaded;
    next_ = (next_ + bytes + 63) / 64 * 64;
    regions_.push_back(std::move(r));
    return static_cast<RegionId>(regions_.size() - 1);
  }

  /// Raw placement for hand-written programs and verifier tests: put a
  /// region at an explicit base with no alignment adjustment. The
  /// allocation cursor advances past it so later add_region calls don't
  /// collide, but nothing stops the caller from overlapping existing
  /// regions — accel::verify flags that (GV007).
  RegionId add_region_at(std::string name, Addr base, std::uint64_t bytes,
                         bool preloaded = false) {
    constexpr Addr kMaxAddr = ~Addr{0};
    if (bytes > kMaxAddr - base || base + bytes > kMaxAddr - 63) {
      throw std::overflow_error("MemoryMap::add_region_at: region '" + name +
                                "' overflows the address space");
    }
    Region r;
    r.name = std::move(name);
    r.base = base;
    r.bytes = bytes;
    r.preloaded = preloaded;
    next_ = std::max(next_, (base + bytes + 63) / 64 * 64);
    regions_.push_back(std::move(r));
    return static_cast<RegionId>(regions_.size() - 1);
  }

  [[nodiscard]] const Region& region(RegionId id) const {
    return regions_.at(id);
  }
  [[nodiscard]] Addr addr(RegionId id, std::uint64_t offset) const {
    return regions_.at(id).base + offset;
  }
  [[nodiscard]] std::uint64_t total_bytes() const { return next_; }
  [[nodiscard]] std::size_t num_regions() const { return regions_.size(); }

 private:
  Addr next_ = 0;
  std::vector<Region> regions_;
};

/// A per-vertex dense buffer living in a region: the vector for global
/// vertex v starts at region base + v * width_words * 4.
struct BufferRef {
  RegionId region = 0;
  std::uint32_t width_words = 0;

  friend bool operator==(const BufferRef&, const BufferRef&) = default;
};

/// What the vertex program of a phase does.
enum class PhaseKind : std::uint8_t {
  /// Gather neighborhood vectors into an AGG entry; the completed
  /// aggregate optionally flows through the DNA (GCN's
  /// aggregate-then-project, Fig 1) and lands in the output buffer. With
  /// walk_len > 1 the "neighborhood" is every walk endpoint at that depth,
  /// reached by chains of dependent row loads (PGNN's multi-hop
  /// convolution — the "complicated graph traversal" of Section VI-A).
  kGatherAggregate,
  /// Per-vertex DNA work with no neighbor exchange: load one or more
  /// per-vertex inputs into a DNQ entry, project, write out (MPNN embed,
  /// GAT projection, PGNN's final per-vertex projection).
  kProject,
  /// Per-edge DNA work: each neighbor contributes a DNQ entry that the DNA
  /// transforms before aggregation (GAT attention, MPNN messages); the
  /// aggregate optionally flows through a second DNA model on virtual
  /// queue 1 (MPNN's GRU).
  kEdgeDnaAggregate,
};

/// One phase. All widths are in 4-byte words.
struct PhaseSpec {
  std::string name;
  PhaseKind kind = PhaseKind::kProject;

  // Neighbor gather source (kGatherAggregate / kEdgeDnaAggregate).
  BufferRef gather;
  bool include_self = true;     // vertex contributes its own vector
  bool weighted_edges = false;  // traversal reads 8B/edge (id + weight)

  // kGatherAggregate: length of the walks whose endpoints are gathered
  // (1 = direct neighbors). For walk_len > 1 the GPE enumerates the walk
  // tree with dependent row loads, and `expected_contribs[global_v]`
  // (filled by the compiler) gives the number of contributions per vertex.
  std::uint32_t walk_len = 1;
  std::vector<std::uint64_t> expected_contribs;

  // Per-entry extra inputs: loaded per *vertex* for kProject, per *edge*
  // for kEdgeDnaAggregate (e.g. MPNN edge features, PGNN power terms).
  std::vector<BufferRef> extra_inputs;
  // Per-edge extras are indexed by global edge id rather than vertex id.
  bool extra_inputs_per_edge = false;

  // Words the GPE itself copies into each DNQ-0 entry (e.g. GAT's p_v).
  std::uint32_t gpe_words_per_entry = 0;

  // DNA model on virtual queue 0: a chain of matmuls executed per entry
  // (e.g. MPNN's two-layer edge MLP + message matvec). Empty means the
  // phase has no DNA stage. m is the per-entry batch, normally 1.
  std::vector<dataflow::MatmulShape> dna_shapes;
  std::uint32_t dna_out_words = 0;

  // Aggregation stage; width 0 means no AGG stage.
  std::uint32_t agg_width_words = 0;
  ReduceOp agg_op = ReduceOp::kSum;

  // Second DNA model on virtual queue 1 (MPNN GRU); empty means unused.
  std::vector<dataflow::MatmulShape> dna2_shapes;
  std::uint32_t dna2_out_words = 0;
  // Words the GPE copies into the DNQ-1 entry (e.g. h_v for the GRU).
  std::uint32_t dna2_gpe_words = 0;

  // Work items are whole graphs instead of vertices (MPNN readout): the
  // task gathers the graph's entire contiguous state block and the output
  // buffer is indexed by graph id.
  bool per_graph = false;

  // Final per-vertex (or per-graph) output buffer.
  BufferRef output;

  // DNA weights streamed from memory when the phase is configured (every
  // tile reads its own copy from `weight_region`).
  std::uint64_t weight_bytes = 0;
  RegionId weight_region = 0;

  [[nodiscard]] bool has_dna() const { return !dna_shapes.empty(); }
  [[nodiscard]] bool has_dna2() const { return !dna2_shapes.empty(); }
  [[nodiscard]] bool has_agg() const { return agg_width_words > 0; }
};

/// Per-graph topology placement in the address space. The vertex/edge
/// counts are the *symmetrized* CSR counts the runtime iterates (an
/// undirected edge appears once per direction), recorded here so a
/// program is self-describing — sizes and extents never require the
/// dataset the compiler happened to see.
struct GraphLayout {
  RegionId row_ptr = 0;
  RegionId col_idx = 0;
  NodeId node_offset = 0;  // first global vertex id of this graph
  EdgeId edge_offset = 0;  // first global edge id (symmetrized CSR order)
  NodeId num_nodes = 0;    // vertices in this graph
  EdgeId num_edges = 0;    // symmetrized (directed) edge count
};

/// A fully lowered program: what the runtime executes. Programs are
/// dataset-independent — the graph topology itself is bound at run time
/// (AcceleratorSim::run takes the dataset alongside the program), which
/// is what lets a program round-trip through the GNNA-IR text format
/// (accel/ir.hpp) and be cached by content hash.
struct CompiledProgram {
  std::string name;
  std::vector<PhaseSpec> phases;
  MemoryMap memmap;
  std::vector<GraphLayout> graphs;

  [[nodiscard]] NodeId total_vertices() const {
    NodeId n = 0;
    for (const auto& g : graphs) n += g.num_nodes;
    return n;
  }

  /// Symmetrized edges over every graph layout.
  [[nodiscard]] std::uint64_t total_edges() const {
    std::uint64_t n = 0;
    for (const auto& g : graphs) n += g.num_edges;
    return n;
  }

  /// Graph index owning global vertex `v` (graphs are laid out in order).
  [[nodiscard]] std::size_t graph_of(NodeId v) const;
};

/// The tile split of `phase`'s work items (vertices, or graphs in per-graph
/// phases) that AcceleratorSim::run executes and accel::analysis models.
/// Degree-greedy packs out-degree + 1 per vertex of `ds`'s symmetrized
/// graphs (per graph: its vertices plus edges); profile-guided packs
/// `profile`, a prior run's per-vertex busy cycles. Without those loads
/// (no `ds`, or a per-graph phase's profile) the split is round-robin.
[[nodiscard]] graph::Partition phase_partition(
    const CompiledProgram& prog, const PhaseSpec& phase,
    const graph::Dataset* ds, std::uint32_t num_tiles,
    graph::PartitionPolicy policy, std::span<const double> profile = {});

/// Number of walks of exactly `len` steps from each (global) vertex of
/// `ds`'s symmetrized graphs: walks_L(v) = sum over neighbors u of
/// walks_{L-1}(u), walks_0 = 1. These are the contribution counts of a
/// multi-hop gather phase (PhaseSpec::expected_contribs). The simulation
/// enumerates every walk, so this throws std::invalid_argument when any
/// step's total exceeds 50M walks.
[[nodiscard]] std::vector<std::uint64_t> walk_counts(const graph::Dataset& ds,
                                                     std::uint32_t len);

/// What one phase occupies on a tile, as Algorithm 1's CONFIG step
/// programs it: the width of every entry the GPE allocates (0 where the
/// phase allocates none) and the bytes each scratchpad offers those
/// entries. The DNQ split gives the whole data scratchpad to virtual queue
/// 0 unless the phase runs a queue-1 model (then Dnq::queue0_split_bytes).
struct PhaseFootprint {
  std::uint32_t dnq0_entry_words = 0;  // per vertex, or per edge on edge phases
  std::uint32_t dnq1_entry_words = 0;  // queue-1 (dna2) entry, per vertex
  std::uint32_t agg_entry_words = 0;
  std::uint32_t dnq0_bytes = 0;
  std::uint32_t dnq1_bytes = 0;
  std::uint32_t agg_bytes = 0;

  /// How many entries each scratchpad holds at once: 0 means an entry can
  /// never fit (GV001/GV002, deadlock), 1 that allocations serialize
  /// (GV101/GV102). Also 0 where the phase allocates no entries there.
  [[nodiscard]] std::uint64_t dnq0_concurrency() const {
    return concurrency(dnq0_entry_words, dnq0_bytes);
  }
  [[nodiscard]] std::uint64_t dnq1_concurrency() const {
    return concurrency(dnq1_entry_words, dnq1_bytes);
  }
  [[nodiscard]] std::uint64_t agg_concurrency() const {
    return concurrency(agg_entry_words, agg_bytes);
  }

 private:
  static std::uint64_t concurrency(std::uint32_t entry_words,
                                   std::uint32_t bytes) {
    return entry_words > 0 ? bytes / (std::uint64_t{entry_words} * kWordBytes)
                           : 0;
  }
};

/// The footprint of `phase` on a tile with parameters `tp` — the widths the
/// GPE allocates and the split Tile::begin_phase programs, which the
/// verifier and the static model check against. Widths past the 32-bit
/// allocation bus saturate (they can never fit, and GV001/GV002 say so).
/// Throws std::invalid_argument on a queue-1 phase when
/// `tp.dnq_queue0_sixteenths` exceeds 16 (GV010).
[[nodiscard]] PhaseFootprint phase_footprint(const PhaseSpec& phase,
                                             const TileParams& tp);

}  // namespace gnna::accel
