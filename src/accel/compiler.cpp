#include "accel/compiler.hpp"

#include <stdexcept>

namespace gnna::accel {
namespace {

constexpr std::uint32_t kWord = 4;

/// Bytes of DNA weights for a plain FC k -> n.
[[nodiscard]] std::uint64_t fc_weight_bytes(std::uint64_t k, std::uint64_t n) {
  return k * n * kWord;
}

}  // namespace

CompiledProgram ProgramCompiler::compile(const gnn::ModelSpec& model,
                                         const graph::Dataset& ds) const {
  CompiledProgram prog;
  prog.name = model.name + " on " + ds.spec.name;

  // --- Topology regions (traversal reads the symmetrized graphs). ---
  NodeId node_off = 0;
  EdgeId edge_off = 0;
  for (std::size_t gi = 0; gi < ds.graphs.size(); ++gi) {
    const graph::Graph& sym = ds.undirected[gi];
    GraphLayout gl;
    gl.node_offset = node_off;
    gl.edge_offset = edge_off;
    gl.num_nodes = sym.num_nodes();
    gl.num_edges = sym.num_edges();
    gl.row_ptr = prog.memmap.add_region(
        "rowptr" + std::to_string(gi),
        (static_cast<std::uint64_t>(sym.num_nodes()) + 1) * kWord,
        /*preloaded=*/true);
    // col_idx stores (id, weight) pairs so weighted phases read 8B/edge.
    gl.col_idx = prog.memmap.add_region(
        "colidx" + std::to_string(gi),
        static_cast<std::uint64_t>(sym.num_edges()) * 2 * kWord,
        /*preloaded=*/true);
    prog.graphs.push_back(gl);
    node_off += sym.num_nodes();
    edge_off += sym.num_edges();
  }
  const NodeId total_nodes = node_off;
  const EdgeId total_sym_edges = edge_off;
  const auto num_graphs = static_cast<std::uint32_t>(ds.graphs.size());

  // --- Feature buffers. ---
  auto add_vertex_buffer = [&](const std::string& name,
                               std::uint32_t width_words) {
    return BufferRef{
        prog.memmap.add_region(
            name, static_cast<std::uint64_t>(total_nodes) * width_words * kWord),
        width_words};
  };

  BufferRef cur{prog.memmap.add_region(
                    "input", static_cast<std::uint64_t>(total_nodes) *
                                 ds.spec.vertex_features * kWord,
                    /*preloaded=*/true),
                ds.spec.vertex_features};

  BufferRef edge_feats{};
  if (ds.spec.edge_features > 0) {
    edge_feats = BufferRef{
        prog.memmap.add_region("edgefeat",
                               static_cast<std::uint64_t>(total_sym_edges) *
                                   ds.spec.edge_features * kWord,
                               /*preloaded=*/true),
        ds.spec.edge_features};
  }

  // --- Lower each layer. ---
  for (std::size_t li = 0; li < model.layers.size(); ++li) {
    const gnn::LayerSpec& l = model.layers[li];
    if (l.in_features != cur.width_words) {
      throw std::invalid_argument("compile: layer " + l.name +
                                  " input width mismatch");
    }
    switch (l.kind) {
      case gnn::LayerKind::kProject: {
        PhaseSpec ph;
        ph.name = l.name;
        ph.kind = PhaseKind::kProject;
        ph.extra_inputs = {cur};
        ph.dna_shapes = {{1, l.in_features, l.out_features}};
        ph.dna_out_words = l.out_features;
        ph.output = add_vertex_buffer(l.name + ".out", l.out_features);
        ph.weight_bytes = fc_weight_bytes(l.in_features, l.out_features);
        prog.phases.push_back(std::move(ph));
        break;
      }
      case gnn::LayerKind::kConv: {
        if (!options_.fuse_conv) {
          // Naive two-phase lowering: aggregate into an intermediate
          // buffer, then project it in a separate phase. accel::opt's
          // fuse-phases pass rewrites this back into the fused form.
          PhaseSpec agg;
          agg.name = l.name + ".agg";
          agg.kind = PhaseKind::kGatherAggregate;
          agg.gather = cur;
          agg.include_self = l.include_self;
          agg.weighted_edges = l.norm != gnn::AggNorm::kSum;
          agg.agg_width_words = l.in_features;
          agg.output = add_vertex_buffer(l.name + ".agg", l.in_features);
          const BufferRef mid = agg.output;
          prog.phases.push_back(std::move(agg));

          PhaseSpec proj;
          proj.name = l.name;
          proj.kind = PhaseKind::kProject;
          proj.extra_inputs = {mid};
          proj.dna_shapes = {{1, l.in_features, l.out_features}};
          proj.dna_out_words = l.out_features;
          proj.output = add_vertex_buffer(l.name + ".out", l.out_features);
          proj.weight_bytes = fc_weight_bytes(l.in_features, l.out_features);
          prog.phases.push_back(std::move(proj));
          break;
        }
        // Aggregate-then-project (Fig 1): gather raw neighbor vectors into
        // the AGG, run the completed aggregate through the DNA.
        PhaseSpec ph;
        ph.name = l.name;
        ph.kind = PhaseKind::kGatherAggregate;
        ph.gather = cur;
        ph.include_self = l.include_self;
        ph.weighted_edges = l.norm != gnn::AggNorm::kSum;
        ph.agg_width_words = l.in_features;
        ph.dna_shapes = {{1, l.in_features, l.out_features}};
        ph.dna_out_words = l.out_features;
        ph.output = add_vertex_buffer(l.name + ".out", l.out_features);
        ph.weight_bytes = fc_weight_bytes(l.in_features, l.out_features);
        prog.phases.push_back(std::move(ph));
        break;
      }
      case gnn::LayerKind::kAttentionConv: {
        // Phase 1: project every vertex (p = W h).
        PhaseSpec proj;
        proj.name = l.name + ".proj";
        proj.kind = PhaseKind::kProject;
        proj.extra_inputs = {cur};
        proj.dna_shapes = {{1, l.in_features, l.out_features}};
        proj.dna_out_words = l.out_features;
        const BufferRef pbuf =
            add_vertex_buffer(l.name + ".p", l.out_features);
        proj.output = pbuf;
        proj.weight_bytes = fc_weight_bytes(l.in_features, l.out_features);
        prog.phases.push_back(std::move(proj));

        // Phase 2: per-edge attention coefficient + scaled accumulate.
        // Each DNQ-0 entry holds p_v (copied by the GPE) and p_u (loaded);
        // the DNA computes the per-head LeakyReLU coefficients and scales
        // p_u. The shape is a cost proxy for heads * (2*head_width) dot
        // MACs + out_features scaling MACs = 3 * out_features MACs.
        PhaseSpec att;
        att.name = l.name + ".att";
        att.kind = PhaseKind::kEdgeDnaAggregate;
        att.gather = pbuf;
        att.include_self = l.include_self;
        att.gpe_words_per_entry = l.out_features;
        att.dna_shapes = {{1, 3, l.out_features}};
        att.dna_out_words = l.out_features;
        att.agg_width_words = l.out_features;
        att.output = add_vertex_buffer(l.name + ".out", l.out_features);
        att.weight_bytes =
            static_cast<std::uint64_t>(l.heads) * 2 * l.head_width() * kWord;
        prog.phases.push_back(std::move(att));
        cur = prog.phases.back().output;
        continue;  // cur already advanced
      }
      case gnn::LayerKind::kMessagePass: {
        const std::uint32_t d = l.out_features;
        PhaseSpec mp;
        mp.name = l.name;
        mp.kind = PhaseKind::kEdgeDnaAggregate;
        mp.gather = cur;  // h_u
        mp.include_self = false;
        if (ds.spec.edge_features > 0) {
          mp.extra_inputs = {edge_feats};
          mp.extra_inputs_per_edge = true;
        }
        // Per entry: the two-layer edge network (ef -> hidden -> d*d) plus
        // the message matvec (d x d) — Gilmer's edge network, the reason
        // MPNN is the most compute-hungry benchmark.
        mp.dna_shapes = {{1, l.edge_features, l.edge_hidden},
                         {1, l.edge_hidden, static_cast<std::uint64_t>(d) * d},
                         {1, d, d}};
        mp.dna_out_words = d;
        mp.agg_width_words = d;
        // GRU update on virtual queue 1: 6 d x d gate matvecs.
        mp.dna2_shapes = {{1, 2ULL * d, 3ULL * d}};
        mp.dna2_out_words = d;
        mp.dna2_gpe_words = d;  // h_v copied in by the GPE
        mp.output = add_vertex_buffer(l.name + ".out", d);
        mp.weight_bytes =
            fc_weight_bytes(l.edge_features, l.edge_hidden) +
            fc_weight_bytes(l.edge_hidden, static_cast<std::uint64_t>(d) * d) +
            6ULL * d * d * kWord;
        prog.phases.push_back(std::move(mp));
        break;
      }
      case gnn::LayerKind::kMultiHopConv: {
        // One phase per adjacency-power term A^(2^j): the vertex program
        // enumerates every walk of length 2^j with chains of dependent row
        // loads and aggregates the endpoint vectors — the "complicated
        // graph traversal" that makes PGNN traversal-bound (Section VI-A).
        std::vector<BufferRef> terms = {cur};  // power 0 (self term)
        for (std::uint32_t j = 0; j < l.hops; ++j) {
          const std::uint32_t walk_len = 1U << j;
          PhaseSpec hop;
          hop.name = l.name + ".A" + std::to_string(walk_len);
          hop.kind = PhaseKind::kGatherAggregate;
          hop.gather = cur;
          hop.include_self = false;
          hop.walk_len = walk_len;
          hop.expected_contribs = walk_counts(ds, walk_len);
          hop.agg_width_words = l.in_features;
          hop.output = add_vertex_buffer(hop.name, l.in_features);
          terms.push_back(hop.output);
          prog.phases.push_back(std::move(hop));
        }
        // Final projection: z_v = sum_j term_j(v) W_j.
        PhaseSpec pr;
        pr.name = l.name + ".proj";
        pr.kind = PhaseKind::kProject;
        pr.extra_inputs = terms;
        pr.dna_shapes = {
            {1, static_cast<std::uint64_t>(terms.size()) * l.in_features,
             l.out_features}};
        pr.dna_out_words = l.out_features;
        pr.output = add_vertex_buffer(l.name + ".out", l.out_features);
        pr.weight_bytes = fc_weight_bytes(
            static_cast<std::uint64_t>(terms.size()) * l.in_features,
            l.out_features);
        prog.phases.push_back(std::move(pr));
        break;
      }
      case gnn::LayerKind::kReadout: {
        PhaseSpec ro;
        ro.name = l.name;
        ro.kind = PhaseKind::kGatherAggregate;
        ro.per_graph = true;
        ro.gather = cur;
        ro.include_self = false;
        ro.agg_width_words = l.in_features;
        ro.dna_shapes = {{1, l.in_features, l.out_features}};
        ro.dna_out_words = l.out_features;
        ro.output = BufferRef{
            prog.memmap.add_region(
                l.name + ".out",
                static_cast<std::uint64_t>(num_graphs) * l.out_features * kWord),
            l.out_features};
        ro.weight_bytes = fc_weight_bytes(l.in_features, l.out_features);
        prog.phases.push_back(std::move(ro));
        break;
      }
    }
    cur = prog.phases.back().output;
  }

  // Weight regions: each phase's DNA weights live in memory and are
  // streamed by every tile at configuration time.
  for (auto& ph : prog.phases) {
    if (ph.weight_bytes > 0) {
      ph.weight_region = prog.memmap.add_region(ph.name + ".w",
                                                ph.weight_bytes,
                                                /*preloaded=*/true);
    }
  }
  return prog;
}

}  // namespace gnna::accel
