#include "accel/verify.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "accel/analysis.hpp"
#include "common/units.hpp"

namespace gnna::accel {

namespace {

/// Collects diagnostics while walking the program.
class Linter {
 public:
  Linter(const CompiledProgram& prog, const TileParams& params,
         const graph::Dataset* ds, const AcceleratorConfig* cfg,
         graph::PartitionPolicy partition)
      : prog_(prog), params_(params), ds_(ds), cfg_(cfg),
        partition_(partition) {
    report_.program_name = prog.name;
  }

  VerifyReport run() {
    check_tile_params();
    check_memory_map();
    check_graph_layouts();
    if (ds_ != nullptr) {
      check_dataset_match();
    } else {
      add(LintCode::kNoDatasetBound, -1,
          "no dataset bound: topology-dependent checks (walk-tree "
          "recomputation, degree comparison, layout/dataset agreement) "
          "skipped");
    }
    for (std::size_t i = 0; i < prog_.phases.size(); ++i) {
      check_phase(static_cast<int>(i), prog_.phases[i]);
    }
    check_dataflow();
    check_perf_model();
    return std::move(report_);
  }

 private:
  void add(LintCode code, int phase, std::string msg) {
    VerifyDiagnostic d;
    d.code = code;
    d.severity = lint_code_severity(code);
    d.phase = phase;
    if (phase >= 0) d.phase_name = prog_.phases[phase].name;
    d.message = std::move(msg);
    report_.diagnostics.push_back(std::move(d));
  }

  // ---- GV010: tile parameters ----
  void check_tile_params() {
    const TileParams& p = params_;
    if (p.gpe_threads == 0) {
      add(LintCode::kBadTileParams, -1, "gpe_threads is 0: no work can run");
    }
    if (p.agg_alus == 0) {
      add(LintCode::kBadTileParams, -1, "agg_alus is 0: AGG cannot reduce");
    }
    if (p.agg_data_bytes == 0 || p.agg_ctrl_bytes < p.agg_ctrl_entry_bytes) {
      add(LintCode::kBadTileParams, -1,
          "AGG scratchpads admit no entries (data=" +
              std::to_string(p.agg_data_bytes) +
              "B, ctrl=" + std::to_string(p.agg_ctrl_bytes) + "B / " +
              std::to_string(p.agg_ctrl_entry_bytes) + "B per entry)");
    }
    if (p.dnq_data_bytes == 0 || p.dnq_dest_bytes < p.dnq_dest_entry_bytes) {
      add(LintCode::kBadTileParams, -1,
          "DNQ scratchpads admit no entries (data=" +
              std::to_string(p.dnq_data_bytes) +
              "B, dest=" + std::to_string(p.dnq_dest_bytes) + "B / " +
              std::to_string(p.dnq_dest_entry_bytes) + "B per entry)");
    }
    if (p.dnq_queue0_sixteenths > 16) {
      add(LintCode::kBadTileParams, -1,
          "dnq_queue0_sixteenths out of range (" +
              std::to_string(p.dnq_queue0_sixteenths) + "/16)");
      split_valid_ = false;
    }
  }

  // ---- GV007: memory map ----
  void check_memory_map() {
    const MemoryMap& mm = prog_.memmap;
    struct Span {
      std::uint64_t base, end;
      const std::string* name;
    };
    std::vector<Span> spans;
    spans.reserve(mm.num_regions());
    for (RegionId id = 0; id < mm.num_regions(); ++id) {
      const Region& r = mm.region(id);
      if (r.base % 64 != 0) {
        add(LintCode::kBadMemoryMap, -1,
            "region '" + r.name + "' base 0x" + to_hex(r.base) +
                " is not 64B-aligned");
      }
      if (r.bytes > ~std::uint64_t{0} - r.base) {
        add(LintCode::kBadMemoryMap, -1,
            "region '" + r.name + "' wraps the address space");
        continue;
      }
      if (r.base + r.bytes > mm.total_bytes()) {
        add(LintCode::kBadMemoryMap, -1,
            "region '" + r.name + "' extends past total_bytes (" +
                std::to_string(r.base + r.bytes) + " > " +
                std::to_string(mm.total_bytes()) + ")");
      }
      spans.push_back({r.base, r.base + r.bytes, &r.name});
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.base < b.base; });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].base < spans[i - 1].end) {
        add(LintCode::kBadMemoryMap, -1,
            "regions '" + *spans[i - 1].name + "' and '" + *spans[i].name +
                "' overlap");
      }
    }
  }

  // ---- GV011: graph-layout table well-formedness ----
  //
  // The compiler always emits a contiguous, correctly-sized table, so any
  // finding here marks a hand-written or hand-edited .gnna file.
  void check_graph_layouts() {
    if (prog_.graphs.empty()) {
      add(LintCode::kBadGraphLayout, -1,
          "program has no graph layouts: there is no work to run");
      return;
    }
    NodeId want_node = 0;
    EdgeId want_edge = 0;
    for (std::size_t gi = 0; gi < prog_.graphs.size(); ++gi) {
      const GraphLayout& g = prog_.graphs[gi];
      const std::string tag = "graph " + std::to_string(gi);
      if (g.num_nodes == 0) {
        add(LintCode::kBadGraphLayout, -1, tag + " has zero vertices");
      }
      if (g.node_offset != want_node || g.edge_offset != want_edge) {
        add(LintCode::kBadGraphLayout, -1,
            tag + " offsets (node=" + std::to_string(g.node_offset) +
                ", edge=" + std::to_string(g.edge_offset) +
                ") are not contiguous with the preceding graphs (want "
                "node=" +
                std::to_string(want_node) +
                ", edge=" + std::to_string(want_edge) + ")");
      }
      want_node += g.num_nodes;
      want_edge += g.num_edges;
      // Topology regions must exist and hold the CSR arrays the traversal
      // reads: (num_nodes + 1) row pointers, num_edges (id, weight) pairs.
      check_topo_region(tag + " rowptr", g.row_ptr,
                        (std::uint64_t{g.num_nodes} + 1) * kWordBytes);
      check_topo_region(tag + " colidx", g.col_idx,
                        std::uint64_t{g.num_edges} * 2 * kWordBytes);
    }
  }

  void check_topo_region(const std::string& what, RegionId id,
                         std::uint64_t need_bytes) {
    if (id >= prog_.memmap.num_regions()) {
      add(LintCode::kBadGraphLayout, -1,
          what + " region id " + std::to_string(id) + " out of range");
      return;
    }
    const Region& r = prog_.memmap.region(id);
    if (r.bytes < need_bytes) {
      add(LintCode::kBadGraphLayout, -1,
          what + " region '" + r.name + "' (" + std::to_string(r.bytes) +
              "B) too small for its topology (" +
              std::to_string(need_bytes) + "B)");
    }
  }

  // ---- GV012: graph layouts vs the bound dataset ----
  void check_dataset_match() {
    if (prog_.graphs.size() != ds_->graphs.size()) {
      add(LintCode::kDatasetMismatch, -1,
          "program has " + std::to_string(prog_.graphs.size()) +
              " graph layouts but the bound dataset has " +
              std::to_string(ds_->graphs.size()) + " graphs");
      return;
    }
    for (std::size_t gi = 0; gi < prog_.graphs.size(); ++gi) {
      const GraphLayout& g = prog_.graphs[gi];
      const graph::Graph& sym = ds_->undirected[gi];
      if (g.num_nodes != sym.num_nodes() || g.num_edges != sym.num_edges()) {
        add(LintCode::kDatasetMismatch, -1,
            "graph " + std::to_string(gi) + " layout (" +
                std::to_string(g.num_nodes) + " vertices, " +
                std::to_string(g.num_edges) +
                " symmetrized edges) disagrees with the bound dataset (" +
                std::to_string(sym.num_nodes()) + " vertices, " +
                std::to_string(sym.num_edges()) + " edges)");
      }
    }
  }

  // ---- per-phase checks ----
  void check_phase(int pi, const PhaseSpec& ph) {
    check_phase_combo(pi, ph);
    // An out-of-range split (GV010, reported once) sizes no virtual queue:
    // the DNQ checks are skipped, and the AGG checks, which no split
    // touches, read the footprint with the scratchpad left whole.
    TileParams tp = params_;
    if (!split_valid_) tp.dnq_queue0_sixteenths = 16;
    const PhaseFootprint fp = phase_footprint(ph, tp);
    if (split_valid_) check_dnq_footprint(pi, fp);
    check_agg(pi, ph, fp);
    check_dna_models(pi, ph);
    check_buffers(pi, ph);
    check_contribs(pi, ph);
  }

  // GV009: field combinations the runtime cannot execute.
  void check_phase_combo(int pi, const PhaseSpec& ph) {
    const bool aggregate_kind = ph.kind == PhaseKind::kGatherAggregate ||
                                ph.kind == PhaseKind::kEdgeDnaAggregate;
    if (aggregate_kind && !ph.has_agg()) {
      add(LintCode::kIllegalPhaseCombo, pi,
          "aggregate-kind phase with agg_width_words == 0");
    }
    if (ph.kind == PhaseKind::kProject && ph.extra_inputs.empty()) {
      add(LintCode::kIllegalPhaseCombo, pi,
          "project phase with no inputs (would allocate zero-width DNQ "
          "entries)");
    }
    if (ph.walk_len == 0) {
      add(LintCode::kIllegalPhaseCombo, pi, "walk_len is 0");
    }
    if (ph.walk_len > 1 && ph.kind != PhaseKind::kGatherAggregate) {
      add(LintCode::kIllegalPhaseCombo, pi,
          "walk_len > 1 is only meaningful for gather-aggregate phases");
    }
    if (ph.per_graph &&
        (ph.kind != PhaseKind::kGatherAggregate || ph.walk_len > 1)) {
      add(LintCode::kIllegalPhaseCombo, pi,
          "per_graph readout must be a 1-hop gather-aggregate phase");
    }
    if (ph.kind == PhaseKind::kEdgeDnaAggregate && ph.include_self &&
        ph.extra_inputs_per_edge && !ph.extra_inputs.empty()) {
      add(LintCode::kIllegalPhaseCombo, pi,
          "self contribution cannot carry per-edge extra inputs "
          "(include_self + extra_inputs_per_edge)");
    }
    if (ph.has_dna2() && ph.kind != PhaseKind::kEdgeDnaAggregate) {
      add(LintCode::kIllegalPhaseCombo, pi,
          "dna2 model on a phase kind that never enqueues to virtual "
          "queue 1");
    }
  }

  // GV001/GV102: every DNQ entry the GPE allocates for this phase must fit
  // the virtual queue it targets under the split the runtime programs, and
  // two must fit for threads to overlap (phase_footprint's concurrency).
  void check_dnq_footprint(int pi, const PhaseFootprint& fp) {
    check_queue_entry(pi, 0, fp.dnq0_entry_words, fp.dnq0_bytes,
                      fp.dnq0_concurrency());
    check_queue_entry(pi, 1, fp.dnq1_entry_words, fp.dnq1_bytes,
                      fp.dnq1_concurrency());
  }

  void check_queue_entry(int pi, int queue, std::uint64_t entry_words,
                         std::uint64_t cap_bytes, std::uint64_t concurrency) {
    if (entry_words == 0) return;
    const std::uint64_t entry_bytes = entry_words * kWordBytes;
    if (concurrency == 0) {
      add(LintCode::kDnqEntryTooLarge, pi,
          "DNQ virtual queue " + std::to_string(queue) + " entry (" +
              std::to_string(entry_words) + " words = " +
              std::to_string(entry_bytes) + "B) can never fit its " +
              std::to_string(cap_bytes) +
              "B capacity: guaranteed deadlock");
    } else if (concurrency == 1) {
      add(LintCode::kDnqLowConcurrency, pi,
          "DNQ virtual queue " + std::to_string(queue) +
              " admits only one in-flight entry (" +
              std::to_string(entry_bytes) + "B of " +
              std::to_string(cap_bytes) + "B): threads will serialize");
    }
  }

  // GV002/GV003/GV101: AGG scratchpad capacity and reduce-op legality.
  void check_agg(int pi, const PhaseSpec& ph, const PhaseFootprint& fp) {
    if (!ph.has_agg()) return;
    const std::uint64_t entry_bytes =
        std::uint64_t{fp.agg_entry_words} * kWordBytes;
    if (fp.agg_concurrency() == 0) {
      add(LintCode::kAggEntryTooLarge, pi,
          "AGG entry (" + std::to_string(fp.agg_entry_words) + " words = " +
              std::to_string(entry_bytes) + "B) exceeds the " +
              std::to_string(fp.agg_bytes) +
              "B data scratchpad: guaranteed deadlock");
    } else if (fp.agg_concurrency() == 1) {
      add(LintCode::kAggLowConcurrency, pi,
          "AGG data scratchpad admits only one in-flight aggregation (" +
              std::to_string(entry_bytes) + "B of " +
              std::to_string(fp.agg_bytes) +
              "B): vertices will serialize");
    }
    if (!is_associative(ph.agg_op)) {
      add(LintCode::kNonAssociativeAggOp, pi,
          "agg_op is not associative; the AGG only supports associative "
          "reductions (data is aggregated in arrival order)");
    }
  }

  // GV005/GV105: matmul-chain shape compatibility and out-width rules.
  void check_dna_models(int pi, const PhaseSpec& ph) {
    if ((ph.kind == PhaseKind::kProject ||
         ph.kind == PhaseKind::kEdgeDnaAggregate) &&
        !ph.has_dna()) {
      add(LintCode::kBadDnaModel, pi,
          "phase kind enqueues DNQ entries but has no dna_shapes: the DNA "
          "can never process them");
    }
    if (ph.has_dna2() && !ph.has_dna()) {
      add(LintCode::kBadDnaModel, pi,
          "dna2_shapes set without a primary dna_shapes model");
    }
    if (ph.has_dna()) {
      check_chain(pi, "dna_shapes", ph.dna_shapes, ph.dna_out_words);
    }
    if (ph.has_dna2()) {
      check_chain(pi, "dna2_shapes", ph.dna2_shapes, ph.dna2_out_words);
    }
    if (ph.weight_bytes > 0 && !ph.has_dna()) {
      add(LintCode::kWeightsWithoutDna, pi,
          "weight_bytes > 0 but the phase has no DNA model to consume "
          "them");
    }
  }

  void check_chain(int pi, const char* field,
                   const std::vector<dataflow::MatmulShape>& chain,
                   std::uint32_t out_words) {
    for (std::size_t s = 0; s < chain.size(); ++s) {
      const auto& sh = chain[s];
      if (sh.m == 0 || sh.k == 0 || sh.n == 0) {
        add(LintCode::kBadDnaModel, pi,
            std::string(field) + "[" + std::to_string(s) +
                "] has a zero dimension (" + shape_str(sh) + ")");
        return;
      }
    }
    // Stage i+1 consumes stage i's output either directly (k chaining) or
    // as a generated k x n weight matrix (hypernetwork chaining, e.g.
    // MPNN's edge network emitting the d x d message matrix).
    for (std::size_t s = 1; s < chain.size(); ++s) {
      const auto& prev = chain[s - 1];
      const auto& sh = chain[s];
      const std::uint64_t prev_out = prev.m * prev.n;
      const bool input_chain = sh.k == prev.n;
      const bool weight_chain = sh.k * sh.n == prev_out;
      if (!input_chain && !weight_chain) {
        add(LintCode::kBadDnaModel, pi,
            std::string(field) + "[" + std::to_string(s) + "] (" +
                shape_str(sh) + ") consumes neither the output width (" +
                std::to_string(prev.n) + ") nor the full output (" +
                std::to_string(prev_out) + " words) of stage " +
                std::to_string(s - 1) + " (" + shape_str(prev) + ")");
      }
    }
    const std::uint64_t last_out = chain.back().m * chain.back().n;
    if (out_words == 0 || out_words > last_out) {
      add(LintCode::kBadDnaModel, pi,
          std::string(field) + " out_words (" + std::to_string(out_words) +
              ") must be in [1, " + std::to_string(last_out) +
              "] (the final stage's output)");
    }
  }

  static std::string shape_str(const dataflow::MatmulShape& s) {
    return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
           std::to_string(s.n);
  }

  // GV004: region ids, widths, indexed extents, width consistency. All
  // extents derive from the program's own graph-layout table, so this
  // check runs with or without a bound dataset.
  void check_buffers(int pi, const PhaseSpec& ph) {
    const std::uint64_t n_vertices = prog_.total_vertices();
    const std::uint64_t n_graphs = prog_.graphs.size();
    const std::uint64_t n_sym_edges = prog_.total_edges();

    const bool reads_gather = ph.kind != PhaseKind::kProject;
    if (reads_gather) {
      check_buffer_extent(pi, "gather", ph.gather, n_vertices);
    }
    for (std::size_t bi = 0; bi < ph.extra_inputs.size(); ++bi) {
      check_buffer_extent(
          pi, "extra_inputs[" + std::to_string(bi) + "]",
          ph.extra_inputs[bi],
          ph.extra_inputs_per_edge ? n_sym_edges : n_vertices);
    }
    check_buffer_extent(pi, "output", ph.output,
                        ph.per_graph ? n_graphs : n_vertices);

    // The width each completed work item actually produces must match the
    // output buffer's stride, else every vertex after the first lands at
    // the wrong address.
    std::uint32_t produced = ph.agg_width_words;
    if (ph.has_dna2()) {
      produced = ph.dna2_out_words;
    } else if (ph.has_dna()) {
      produced = ph.dna_out_words;
    }
    if (produced != ph.output.width_words) {
      add(LintCode::kBadBufferRef, pi,
          "output width (" + std::to_string(ph.output.width_words) +
              " words) != produced width (" + std::to_string(produced) +
              " words)");
    }
    // Contribution accounting is in units of the vectors that arrive:
    // gather phases count gather-width vectors into agg-width entries,
    // edge phases count DNA results into agg-width entries. A mismatch
    // miscounts expected words, so the entry completes early or never.
    if (ph.kind == PhaseKind::kGatherAggregate && ph.has_agg() &&
        ph.gather.width_words != ph.agg_width_words) {
      add(LintCode::kBadBufferRef, pi,
          "gather width (" + std::to_string(ph.gather.width_words) +
              " words) != agg_width_words (" +
              std::to_string(ph.agg_width_words) +
              "): AGG word accounting would never complete");
    }
    if (ph.kind == PhaseKind::kEdgeDnaAggregate && ph.has_agg() &&
        ph.has_dna() && ph.dna_out_words != ph.agg_width_words) {
      add(LintCode::kBadBufferRef, pi,
          "dna_out_words (" + std::to_string(ph.dna_out_words) +
              ") != agg_width_words (" + std::to_string(ph.agg_width_words) +
              "): each DNA result must be one aggregation vector");
    }
    if (ph.weight_bytes > 0) {
      if (ph.weight_region >= prog_.memmap.num_regions()) {
        add(LintCode::kBadBufferRef, pi,
            "weight_region id " + std::to_string(ph.weight_region) +
                " out of range");
      } else if (prog_.memmap.region(ph.weight_region).bytes <
                 ph.weight_bytes) {
        add(LintCode::kBadBufferRef, pi,
            "weight region '" + prog_.memmap.region(ph.weight_region).name +
                "' (" +
                std::to_string(prog_.memmap.region(ph.weight_region).bytes) +
                "B) smaller than weight_bytes (" +
                std::to_string(ph.weight_bytes) + "B)");
      }
    }
  }

  void check_buffer_extent(int pi, const std::string& what,
                           const BufferRef& b, std::uint64_t count) {
    if (b.region >= prog_.memmap.num_regions()) {
      add(LintCode::kBadBufferRef, pi,
          what + " region id " + std::to_string(b.region) + " out of range");
      return;
    }
    if (b.width_words == 0) {
      add(LintCode::kBadBufferRef, pi, what + " has zero width");
      return;
    }
    const Region& r = prog_.memmap.region(b.region);
    const std::uint64_t need = count * b.width_words * kWordBytes;
    if (r.bytes < need) {
      add(LintCode::kBadBufferRef, pi,
          what + " region '" + r.name + "' (" + std::to_string(r.bytes) +
              "B) too small for " + std::to_string(count) + " x " +
              std::to_string(b.width_words) + " words (" +
              std::to_string(need) + "B)");
    }
  }

  // GV006/GV104: expected_contribs vs an independent walk-tree count. The
  // size check is layout-derived; the truth comparison needs the bound
  // dataset's topology and is skipped (GV107) without one.
  void check_contribs(int pi, const PhaseSpec& ph) {
    if (ph.walk_len <= 1) {
      if (ph.expected_contribs.empty() || ds_ == nullptr) return;
      // A 1-hop phase ignores expected_contribs (the runtime counts direct
      // degrees), so redundant-but-correct counts are harmless — PGNN's
      // first A^1 hop ships them. Warn only when they disagree with what
      // the runtime will actually expect.
      if (!contribs_match_degrees(ph)) {
        add(LintCode::kUnusedExpectedContribs, pi,
            "expected_contribs supplied but walk_len == 1: the runtime "
            "uses direct degrees, which disagree with the supplied "
            "counts");
      }
      return;
    }
    if (ph.kind != PhaseKind::kGatherAggregate) return;  // GV009 covers it
    const std::uint64_t n_vertices = prog_.total_vertices();
    if (ph.expected_contribs.size() != n_vertices) {
      add(LintCode::kBadExpectedContribs, pi,
          "expected_contribs has " +
              std::to_string(ph.expected_contribs.size()) +
              " entries for " + std::to_string(n_vertices) + " vertices");
      return;
    }
    if (ds_ == nullptr) return;
    std::vector<std::uint64_t> truth;
    try {
      truth = walk_counts(*ds_, ph.walk_len);
    } catch (const std::invalid_argument&) {  // beyond the 50M-walk bound
      add(LintCode::kBadExpectedContribs, pi,
          "walk tree of length " + std::to_string(ph.walk_len) +
              " too large to enumerate");
      return;
    }
    for (std::uint64_t v = 0; v < n_vertices; ++v) {
      if (ph.expected_contribs[v] != truth[v]) {
        add(LintCode::kBadExpectedContribs, pi,
            "expected_contribs[" + std::to_string(v) + "] = " +
                std::to_string(ph.expected_contribs[v]) +
                " but the walk tree has " + std::to_string(truth[v]) +
                " walks of length " + std::to_string(ph.walk_len));
        return;  // first mismatch is enough
      }
    }
  }

  [[nodiscard]] bool contribs_match_degrees(const PhaseSpec& ph) const {
    const std::uint64_t self = ph.include_self ? 1 : 0;
    std::uint64_t v = 0;
    for (const auto& g : ds_->undirected) {
      for (NodeId lv = 0; lv < g.num_nodes(); ++lv, ++v) {
        if (v >= ph.expected_contribs.size() ||
            ph.expected_contribs[v] != g.out_degree(lv) + self) {
          return false;
        }
      }
    }
    return v == ph.expected_contribs.size();
  }

  // ---- GV008/GV103/GV106: cross-phase def-use dataflow ----
  void check_dataflow() {
    const std::size_t n = prog_.memmap.num_regions();
    std::vector<bool> written(n, false);
    for (RegionId id = 0; id < n; ++id) {
      written[id] = prog_.memmap.region(id).preloaded;
    }
    // last_read[r] = last phase index that reads region r (-1 = never).
    std::vector<int> last_read(n, -1);
    for (std::size_t i = 0; i < prog_.phases.size(); ++i) {
      const PhaseSpec& ph = prog_.phases[i];
      for (const auto& b : reads_of(ph)) {
        if (b >= n) continue;  // GV004 already reported
        last_read[b] = static_cast<int>(i);
        if (!written[b]) {
          add(LintCode::kReadBeforeWrite, static_cast<int>(i),
              "reads region '" + prog_.memmap.region(b).name +
                  "' before any phase writes it");
        }
      }
      if (ph.output.region < n) {
        if (prog_.memmap.region(ph.output.region).preloaded) {
          add(LintCode::kOutputClobbersPreload, static_cast<int>(i),
              "output overwrites preloaded region '" +
                  prog_.memmap.region(ph.output.region).name + "'");
        }
        written[ph.output.region] = true;
      }
    }
    // Dead stores: an output no later phase reads, unless it is the final
    // phase's (the program result).
    for (std::size_t i = 0; i + 1 < prog_.phases.size(); ++i) {
      const RegionId out = prog_.phases[i].output.region;
      if (out >= n) continue;
      if (last_read[out] <= static_cast<int>(i)) {
        add(LintCode::kDeadStore, static_cast<int>(i),
            "output region '" + prog_.memmap.region(out).name +
                "' is never read by a later phase");
      }
    }
  }

  [[nodiscard]] std::vector<RegionId> reads_of(const PhaseSpec& ph) const {
    std::vector<RegionId> r;
    if (ph.kind != PhaseKind::kProject) r.push_back(ph.gather.region);
    for (const auto& b : ph.extra_inputs) r.push_back(b.region);
    return r;
  }

  static std::string to_hex(std::uint64_t v) {
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
  }

  // ---- GV108, GV201..GV204: static-model performance lints ----
  // Only meaningful with a full config bound, and only on programs with no
  // error diagnostics (the analytic model's numbers are nonsense for a
  // program that cannot execute).
  void check_perf_model() {
    if (cfg_ == nullptr) return;
    if (std::any_of(report_.diagnostics.begin(), report_.diagnostics.end(),
                    [](const VerifyDiagnostic& d) {
                      return d.severity == Severity::kError;
                    })) {
      return;
    }
    AnalysisOptions options;
    options.dataset = ds_;
    options.partition = partition_;
    for (const PerfDiagnostic& d : perf_lints(prog_, *cfg_, options)) {
      add(d.code, d.phase, d.message);
    }
  }

  const CompiledProgram& prog_;
  const TileParams& params_;
  const graph::Dataset* ds_;
  const AcceleratorConfig* cfg_;
  graph::PartitionPolicy partition_;
  VerifyReport report_;
  bool split_valid_ = true;
};

}  // namespace

VerifyReport verify_program(const CompiledProgram& prog,
                            const TileParams& params,
                            const graph::Dataset* ds,
                            const AcceleratorConfig* cfg,
                            graph::PartitionPolicy partition) {
  return Linter(prog, params, ds, cfg, partition).run();
}

std::size_t VerifyReport::num_errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const VerifyDiagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

std::size_t VerifyReport::num_warnings() const {
  return diagnostics.size() - num_errors();
}

bool VerifyReport::has(LintCode code) const {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [code](const VerifyDiagnostic& d) { return d.code == code; });
}

void VerifyReport::print(std::ostream& os) const {
  os << "verify: " << program_name << ": " << num_errors() << " error(s), "
     << num_warnings() << " warning(s)\n";
  for (const auto& d : diagnostics) {
    os << "  " << lint_code_name(d.code) << ' '
       << (d.severity == Severity::kError ? "error" : "warning");
    if (d.phase >= 0) {
      os << " phase " << d.phase << " (" << d.phase_name << ")";
    }
    os << ": " << d.message << '\n';
  }
}

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

ProgramVerifyError::ProgramVerifyError(VerifyReport report)
    : std::runtime_error(report.to_string()), report_(std::move(report)) {}

VerifyReport verify_or_throw(const CompiledProgram& prog,
                             const TileParams& params,
                             const graph::Dataset* ds,
                             const AcceleratorConfig* cfg,
                             graph::PartitionPolicy partition) {
  VerifyReport report = verify_program(prog, params, ds, cfg, partition);
  if (!report.ok()) throw ProgramVerifyError(std::move(report));
  return report;
}

namespace {

constexpr LintCodeInfo kLintTable[] = {
    {LintCode::kDnqEntryTooLarge, Severity::kError, "GV001",
     "DNQ entry can never fit its virtual queue (guaranteed deadlock)"},
    {LintCode::kAggEntryTooLarge, Severity::kError, "GV002",
     "AGG entry exceeds the data scratchpad (guaranteed deadlock)"},
    {LintCode::kNonAssociativeAggOp, Severity::kError, "GV003",
     "non-associative AGG reduce op"},
    {LintCode::kBadBufferRef, Severity::kError, "GV004",
     "bad buffer reference (region id, width, extent, or stride mismatch)"},
    {LintCode::kBadDnaModel, Severity::kError, "GV005",
     "bad DNA model (matmul chain, out_words, or missing model)"},
    {LintCode::kBadExpectedContribs, Severity::kError, "GV006",
     "expected_contribs inconsistent with the walk tree"},
    {LintCode::kBadMemoryMap, Severity::kError, "GV007",
     "malformed MemoryMap (overlap, misalignment, overflow)"},
    {LintCode::kReadBeforeWrite, Severity::kError, "GV008",
     "buffer read before any phase writes it"},
    {LintCode::kIllegalPhaseCombo, Severity::kError, "GV009",
     "illegal phase-field combination"},
    {LintCode::kBadTileParams, Severity::kError, "GV010",
     "unusable TileParams (zero resources or bad queue split)"},
    {LintCode::kBadGraphLayout, Severity::kError, "GV011",
     "malformed graph-layout table (offsets, counts, or topology regions)"},
    {LintCode::kDatasetMismatch, Severity::kError, "GV012",
     "graph-layout table disagrees with the bound dataset"},
    {LintCode::kAggLowConcurrency, Severity::kWarning, "GV101",
     "AGG scratchpad admits < 2 concurrent aggregations"},
    {LintCode::kDnqLowConcurrency, Severity::kWarning, "GV102",
     "DNQ virtual queue admits < 2 concurrent entries"},
    {LintCode::kDeadStore, Severity::kWarning, "GV103",
     "phase output never read and not the program result"},
    {LintCode::kUnusedExpectedContribs, Severity::kWarning, "GV104",
     "expected_contribs supplied but unused (walk_len == 1)"},
    {LintCode::kWeightsWithoutDna, Severity::kWarning, "GV105",
     "weight_bytes > 0 on a phase with no DNA model"},
    {LintCode::kOutputClobbersPreload, Severity::kWarning, "GV106",
     "phase output overwrites a preloaded region"},
    {LintCode::kNoDatasetBound, Severity::kWarning, "GV107",
     "no dataset bound: topology-dependent checks skipped"},
    {LintCode::kNocBisectionSaturated, Severity::kWarning, "GV108",
     "estimated NoC traffic saturates the mesh bisection bandwidth"},
    {LintCode::kReuseDistanceThrash, Severity::kWarning, "GV201",
     "scratchpad admits far fewer concurrent entries than GPE threads "
     "(reuse-distance thrash: most threads stall on allocation)"},
    {LintCode::kQueueSplitStarved, Severity::kWarning, "GV202",
     "DNQ virtual-queue split starves one queue; another split admits "
     ">= 2 entries in both"},
    {LintCode::kBankCamping, Severity::kWarning, "GV203",
     "predicted bank camping: page/bank interleave maps each controller's "
     "traffic onto a strict subset of its banks"},
    {LintCode::kPartitionImbalance, Severity::kWarning, "GV204",
     "modeled partition concentrates per-tile load (max/mean >= 1.5)"},
};

}  // namespace

const char* lint_code_name(LintCode code) {
  for (const auto& e : kLintTable) {
    if (e.code == code) return e.name;
  }
  return "GV???";
}

std::vector<LintCodeInfo> lint_code_table() {
  return {std::begin(kLintTable), std::end(kLintTable)};
}

const char* lint_family_name(LintFamily family) {
  switch (family) {
    case LintFamily::kError: return "errors";
    case LintFamily::kWarning: return "warnings";
    case LintFamily::kPerf: return "perf";
  }
  return "unknown";
}

}  // namespace gnna::accel
