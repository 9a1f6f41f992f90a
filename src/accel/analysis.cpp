#include "accel/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <tuple>

#include "accel/dna.hpp"
#include "common/units.hpp"

namespace gnna::accel {

namespace {

/// GV201 threshold: fewer concurrent entries than a quarter of the GPE
/// thread pool means most in-flight threads stall on allocation (the
/// reuse distance of a scratchpad entry is ~threads concurrent entries).
std::uint64_t min_healthy_concurrency(const TileParams& tp) {
  return std::max<std::uint64_t>(2, tp.gpe_threads / 4);
}

/// GV204 threshold: max/mean tile load at which the partition (not the
/// hardware) bounds the phase.
constexpr double kImbalanceThreshold = 1.5;

/// phase_footprint under `tp` with `sixteenths` as the DNQ split; an
/// out-of-range split (GV010, verify's to report) leaves the scratchpad
/// whole to queue 0.
PhaseFootprint footprint_at(const PhaseSpec& ph, TileParams tp,
                            std::uint32_t sixteenths) {
  tp.dnq_queue0_sixteenths = std::min(sixteenths, 16U);
  return phase_footprint(ph, tp);
}

/// Per-vertex work weights for one phase (contribution counts), or empty
/// when they cannot be derived statically.
std::vector<std::uint64_t> per_vertex_loads(const CompiledProgram& prog,
                                            const PhaseSpec& ph,
                                            const graph::Dataset* ds) {
  const std::uint64_t n = prog.total_vertices();
  if (ph.per_graph || ph.kind == PhaseKind::kProject) return {};
  if (ph.walk_len > 1) {
    if (ph.expected_contribs.size() == n) return ph.expected_contribs;
    return {};
  }
  if (ds == nullptr) return {};
  const std::uint64_t self = ph.include_self ? 1 : 0;
  std::vector<std::uint64_t> loads;
  loads.reserve(n);
  for (const auto& g : ds->undirected) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      loads.push_back(g.out_degree(v) + self);
    }
  }
  if (loads.size() != n) return {};  // layout/dataset mismatch (GV012)
  return loads;
}

struct MemTraffic {
  std::uint64_t served = 0;    // line-rounded bytes the data bus moves
  std::uint64_t payload = 0;   // unrounded bytes the NoC carries
  std::uint64_t requests = 0;
  std::uint64_t granules = 0;  // 64B lines touched

  void add(std::uint64_t bytes, std::uint64_t count = 1) {
    if (bytes == 0 || count == 0) return;
    const std::uint64_t lines = (bytes + kFlitBytes - 1) / kFlitBytes;
    served += lines * kFlitBytes * count;
    payload += bytes * count;
    requests += count;
    granules += lines * count;
  }
};

/// Models one phase. All compute costs are in core cycles until the final
/// scale to NoC cycles.
class PhaseAnalyzer {
 public:
  PhaseAnalyzer(const CompiledProgram& prog, const AcceleratorConfig& cfg,
                const PhaseSpec& ph, const AnalysisOptions& options)
      : prog_(prog), cfg_(cfg), tp_(cfg.tile_params), ph_(ph),
        options_(options),
        fp_(footprint_at(ph, tp_, tp_.dnq_queue0_sixteenths)) {}

  PhaseModel run() {
    PhaseModel m;
    m.name = ph_.name;
    fill_occupancy(m);

    const std::uint32_t num_tiles = std::max(1U, cfg_.num_tiles());
    const double scale = cfg_.core_clock.ghz() > 0.0
                             ? cfg_.noc_clock.ghz() / cfg_.core_clock.ghz()
                             : 1.0;

    const auto [gpe_core, dna_core, agg_core] = compute_terms(num_tiles);
    m.gpe_cycles = gpe_core * scale;
    m.dna_cycles = dna_core * scale;
    m.agg_cycles = agg_core * scale;
    m.compute_cycles = std::max({m.gpe_cycles, m.dna_cycles, m.agg_cycles});

    const MemTraffic traffic = memory_traffic();
    m.read_bytes = traffic.served >= write_served_ ? traffic.served -
                                                         write_served_
                                                   : 0;
    m.write_bytes = write_served_;
    m.payload_bytes = traffic.payload;
    m.mem_requests = traffic.requests;
    const double bus_bpc =
        cfg_.mem_params.bandwidth.bytes_per_cycle(cfg_.noc_clock) *
        std::max(1U, cfg_.num_mem_nodes());
    if (bus_bpc > 0.0) {
      m.memory_cycles = static_cast<double>(traffic.served) / bus_bpc;
    }
    m.predicted_row_hit_rate = row_hit_rate(traffic);

    // NoC bisection term (GV108 fires when it exceeds the memory term):
    // pages interleave uniformly across the controllers, so ~half the
    // payload crosses the mesh bisection, which min(W, H) bidirectional
    // 64B links carry.
    const double bisection_bpc =
        2.0 * std::min(cfg_.mesh_width, cfg_.mesh_height) * kFlitBytes;
    if (bisection_bpc > 0.0) {
      m.noc_cycles =
          static_cast<double>(traffic.payload) / 2.0 / bisection_bpc;
    }

    m.bound_cycles =
        std::max({m.compute_cycles, m.memory_cycles, m.noc_cycles});
    m.bottleneck = m.bound_cycles == m.memory_cycles  ? "memory"
                   : m.bound_cycles == m.noc_cycles   ? "noc"
                   : m.bound_cycles == m.gpe_cycles   ? "gpe"
                   : m.bound_cycles == m.dna_cycles   ? "dna"
                                                      : "agg";
    return m;
  }

 private:
  // ---- scratchpad occupancy under the virtual-queue split ----
  void fill_occupancy(PhaseModel& m) const {
    const auto occupancy = [](std::uint64_t entry_words,
                              std::uint64_t capacity_bytes,
                              std::uint64_t concurrency) {
      return QueueOccupancy{entry_words > 0, entry_words * kWordBytes,
                            capacity_bytes, concurrency};
    };
    m.dnq0 = occupancy(fp_.dnq0_entry_words, fp_.dnq0_bytes,
                       fp_.dnq0_concurrency());
    m.dnq1 = occupancy(fp_.dnq1_entry_words, fp_.dnq1_bytes,
                       fp_.dnq1_concurrency());
    m.agg = occupancy(fp_.agg_entry_words, fp_.agg_bytes,
                      fp_.agg_concurrency());
  }

  // ---- compute terms (GPE / DNA / AGG), core cycles, per-tile max ----
  //
  // Every term counts a strict subset of the actions the simulator
  // serializes on that unit, so each is a valid lower bound: GPE context
  // switches and allocation-stall retries are excluded, walk-tree
  // interior expansion is excluded, and the AGG term uses total words /
  // ALUs (<= the sum of per-message ceil divisions).
  [[nodiscard]] std::tuple<double, double, double> compute_terms(
      std::uint32_t num_tiles) {
    const std::uint64_t n = prog_.total_vertices();
    const double L = tp_.cost_loop_iter;
    const double I = tp_.cost_issue_load;
    const double A = tp_.cost_alloc;
    const double S = tp_.cost_send;

    // Per-entry DNA initiation intervals (core cycles) of each virtual
    // queue, from the same model timings and widths the tile runs.
    const double dna_ii_q0 =
        ph_.has_dna()
            ? static_cast<double>(dna_entry_ii(
                  dna_model_timing(ph_.dna_shapes, ph_.dna_out_words, tp_,
                                   cfg_.core_clock),
                  fp_.dnq0_entry_words, tp_))
            : 0.0;
    const double dna_ii_q1 =
        ph_.has_dna2()
            ? static_cast<double>(dna_entry_ii(
                  dna_model_timing(ph_.dna2_shapes, ph_.dna2_out_words, tp_,
                                   cfg_.core_clock),
                  fp_.dnq1_entry_words, tp_))
            : 0.0;

    if (ph_.per_graph) {
      // Work items are graphs, split over the tiles exactly as the
      // simulator splits them (per-graph owners need no dataset).
      // Per graph: bind (L), DNQ alloc (A or L), AGG alloc (A), one wide
      // load (I); DNA processes one pooled entry per graph; the AGG
      // reduces the graph's whole state block.
      const graph::Partition part = phase_partition(
          prog_, ph_, options_.dataset, num_tiles, options_.partition);
      const double gpe_per = L + (ph_.has_dna() ? A : L) + A + I;
      double dna = 0.0, agg = 0.0;
      std::uint64_t per_tile = 0;
      for (const auto& items : part.by_tile()) {
        per_tile = std::max<std::uint64_t>(per_tile, items.size());
      }
      const double gpe = static_cast<double>(per_tile) * gpe_per;
      if (ph_.has_dna() && per_tile > 0) {
        // The last entry's result drains through the DNA pipeline after
        // its array slot; the phase barrier waits for it, so one fill/
        // drain latency per phase is part of the lower bound.
        dna = static_cast<double>(per_tile) * dna_ii_q0 +
              static_cast<double>(tp_.dna_pipeline_latency);
      }
      if (ph_.has_agg() && tp_.agg_alus > 0) {
        // Whole-block words land on the owning tile; bound with the
        // heaviest tile's graph blocks.
        std::vector<double> tile_words(num_tiles, 0.0);
        for (NodeId g = 0; g < prog_.graphs.size(); ++g) {
          tile_words[part.owner(g)] +=
              static_cast<double>(prog_.graphs[g].num_nodes) *
              ph_.gather.width_words;
        }
        agg = *std::max_element(tile_words.begin(), tile_words.end()) /
              tp_.agg_alus;
      }
      return {gpe, dna, agg};
    }

    // Per-vertex fixed cost and per-contribution cost (see gpe.cpp; the
    // prologue issues the row-pointer load, then the column-index load
    // when deg > 0 — without per-vertex degrees the cheaper of the two
    // outcomes keeps the bound safe).
    const auto loads = per_vertex_loads(prog_, ph_, options_.dataset);
    // Prologue: row-pointer load (I), then column-index load when deg > 0
    // or a loop-iter bailout otherwise — the cheaper branch keeps the
    // bound safe without per-vertex degrees.
    double fixed = I + std::min(I, L);
    double per_contrib = 0.0;
    std::uint64_t dna_entries_per_vertex = 0;
    double dna_entries_per_contrib = 0.0;
    double agg_words_per_contrib = 0.0;

    switch (ph_.kind) {
      case PhaseKind::kGatherAggregate:
        fixed += (ph_.has_dna() ? A : L) + A;
        per_contrib = L + I;
        if (ph_.has_dna()) dna_entries_per_vertex = 1;
        agg_words_per_contrib = ph_.gather.width_words;
        break;
      case PhaseKind::kProject:
        fixed += A + static_cast<double>(ph_.extra_inputs.size()) * (L + I);
        if (ph_.has_dna()) dna_entries_per_vertex = 1;
        break;
      case PhaseKind::kEdgeDnaAggregate: {
        const bool needs_own =
            ph_.gpe_words_per_entry > 0 || ph_.dna2_gpe_words > 0;
        const bool own_send = ph_.has_dna2() && ph_.dna2_gpe_words > 0;
        fixed += (needs_own ? I : L) + (ph_.has_dna2() ? A : L) + A +
                 (own_send ? S : L);
        per_contrib = A + (L + I) +
                      (ph_.extra_inputs.empty() ? 0.0 : L + I) +
                      (ph_.gpe_words_per_entry > 0 ? S : L);
        if (ph_.has_dna()) dna_entries_per_contrib = 1.0;
        if (ph_.has_dna2()) dna_entries_per_vertex = 1;
        agg_words_per_contrib = ph_.dna_out_words;
        break;
      }
    }

    // Per-tile vertex and contribution counts under the simulator's split
    // (phase_partition). Without a profile or, for degree-greedy, a bound
    // dataset the model's split is round-robin, so it keeps those vertex
    // counts and the balanced contribution mean, still a lower bound.
    std::vector<std::uint64_t> tile_vertices(num_tiles, 0);
    std::vector<std::uint64_t> tile_contribs(num_tiles, 0);
    // Evaluate the predicate once and branch on the local: GCC 12's VRP
    // mis-folds a repeated `enum != constant` test on the uint8_t enum
    // loaded through the reference member (observed at -O2/-O3).
    const graph::PartitionPolicy policy = options_.partition;
    const bool static_partition =
        policy != graph::PartitionPolicy::kProfileGuided &&
        (policy != graph::PartitionPolicy::kDegreeGreedy ||
         options_.dataset != nullptr);
    const graph::Partition part =
        phase_partition(prog_, ph_, options_.dataset, num_tiles, policy);
    for (NodeId v = 0; v < n; ++v) tile_vertices[part.owner(v)] += 1;
    if (!loads.empty() && static_partition) {
      for (NodeId v = 0; v < n; ++v) {
        tile_contribs[part.owner(v)] += loads[v];
      }
      imbalance_ = imbalance_of(tile_contribs);
    } else {
      // Balanced mean: still a lower bound on whatever the real owners do.
      const std::uint64_t total_contribs = phase_total_contribs();
      for (auto& c : tile_contribs) c = total_contribs / num_tiles;
    }

    double gpe = 0.0, dna = 0.0, agg = 0.0;
    for (std::uint32_t t = 0; t < num_tiles; ++t) {
      const auto tv = static_cast<double>(tile_vertices[t]);
      const auto tc = static_cast<double>(tile_contribs[t]);
      gpe = std::max(gpe, tv * fixed + tc * per_contrib);
      // Queue-0 entries: one per contribution on edge phases, one per
      // vertex otherwise; queue-1 entries (dna2) are one per vertex.
      const double q0_entries =
          ph_.kind == PhaseKind::kEdgeDnaAggregate
              ? tc * dna_entries_per_contrib
              : tv * static_cast<double>(dna_entries_per_vertex);
      const double q1_entries = ph_.has_dna2() ? tv : 0.0;
      double tile_dna = q0_entries * dna_ii_q0 + q1_entries * dna_ii_q1;
      if (tile_dna > 0.0) {
        // Pipeline drain: the barrier waits for the last entry's result,
        // dna_pipeline_latency core cycles after its array slot.
        tile_dna += static_cast<double>(tp_.dna_pipeline_latency);
      }
      dna = std::max(dna, tile_dna);
      if (tp_.agg_alus > 0 && ph_.has_agg()) {
        agg = std::max(agg, tc * agg_words_per_contrib / tp_.agg_alus);
      }
    }
    return {gpe, dna, agg};
  }

  [[nodiscard]] std::uint64_t phase_total_contribs() const {
    if (ph_.kind == PhaseKind::kProject || ph_.per_graph) return 0;
    if (ph_.walk_len > 1 && !ph_.expected_contribs.empty()) {
      return std::accumulate(ph_.expected_contribs.begin(),
                             ph_.expected_contribs.end(), std::uint64_t{0});
    }
    return prog_.total_edges() +
           (ph_.include_self ? prog_.total_vertices() : std::uint64_t{0});
  }

  // ---- memory traffic ----
  [[nodiscard]] MemTraffic memory_traffic() {
    MemTraffic tr;
    const std::uint64_t n = prog_.total_vertices();
    const std::uint64_t gather_bytes =
        std::uint64_t{ph_.gather.width_words} * kWordBytes;

    if (ph_.per_graph) {
      for (const auto& g : prog_.graphs) {
        tr.add(std::uint64_t{g.num_nodes} * gather_bytes);
      }
    } else {
      // Traversal prologue: one row-pointer pair per vertex, one
      // column-index read per vertex with outgoing edges. Without
      // per-vertex degrees, the aggregate (unrounded) column bytes keep
      // the bound safe; walk_len > 1 interior re-expansion is excluded.
      tr.add(2 * kWordBytes, n);
      const std::uint64_t edge_entry =
          ph_.weighted_edges ? 2 * kWordBytes : kWordBytes;
      const auto* ds = options_.dataset;
      if (ds != nullptr && dataset_matches(ds)) {
        for (const auto& g : ds->undirected) {
          for (NodeId v = 0; v < g.num_nodes(); ++v) {
            const std::uint32_t deg = g.out_degree(v);
            if (deg > 0) tr.add(std::uint64_t{deg} * edge_entry);
          }
        }
      } else {
        const std::uint64_t column_bytes = prog_.total_edges() * edge_entry;
        tr.payload += column_bytes;
        tr.served += column_bytes;
      }

      const std::uint64_t contribs = phase_total_contribs();
      switch (ph_.kind) {
        case PhaseKind::kGatherAggregate:
          tr.add(gather_bytes, contribs);
          break;
        case PhaseKind::kProject:
          for (const auto& b : ph_.extra_inputs) {
            tr.add(std::uint64_t{b.width_words} * kWordBytes, n);
          }
          break;
        case PhaseKind::kEdgeDnaAggregate: {
          tr.add(gather_bytes, contribs);
          const bool needs_own =
              ph_.gpe_words_per_entry > 0 || ph_.dna2_gpe_words > 0;
          if (needs_own) tr.add(gather_bytes, n);
          if (!ph_.extra_inputs.empty()) {
            const std::uint64_t loads =
                ph_.extra_inputs_per_edge ? prog_.total_edges() : contribs;
            tr.add(std::uint64_t{ph_.extra_inputs.front().width_words} *
                       kWordBytes,
                   loads);
          }
          break;
        }
      }
    }

    // Weight stream: every tile reads its own copy when the phase is
    // configured.
    if (ph_.weight_bytes > 0) {
      tr.add(ph_.weight_bytes, std::max(1U, cfg_.num_tiles()));
    }

    // Output writes (DNA results or raw aggregates).
    const std::uint64_t out_items =
        ph_.per_graph ? prog_.graphs.size() : n;
    const std::uint64_t out_bytes =
        std::uint64_t{ph_.output.width_words} * kWordBytes;
    const std::uint64_t before = tr.served;
    tr.add(out_bytes, out_items);
    write_served_ = tr.served - before;
    return tr;
  }

  [[nodiscard]] bool dataset_matches(const graph::Dataset* ds) const {
    if (ds->undirected.size() != prog_.graphs.size()) return false;
    NodeId total = 0;
    for (const auto& g : ds->undirected) total += g.num_nodes();
    return total == prog_.total_vertices();
  }

  /// Optimistic row-hit mix: each request streams its granules through
  /// the banks; the first touch of each bank misses (rows differ between
  /// requests under scattered per-vertex access), the rest hit.
  [[nodiscard]] double row_hit_rate(const MemTraffic& tr) const {
    if (cfg_.mem_params.scheduler != mem::MemScheduler::kFrFcfs) return 0.0;
    if (tr.requests == 0 || tr.granules == 0) return 0.0;
    const std::uint64_t banks = std::max(1U, cfg_.mem_params.banks);
    const double avg_granules =
        static_cast<double>(tr.granules) / static_cast<double>(tr.requests);
    const double misses_per_req =
        std::min(avg_granules, static_cast<double>(banks));
    return 1.0 - misses_per_req / avg_granules;
  }

 public:
  [[nodiscard]] double imbalance() const { return imbalance_; }

 private:
  [[nodiscard]] static double imbalance_of(
      const std::vector<std::uint64_t>& tile_loads) {
    if (tile_loads.empty()) return 0.0;
    const double total = std::accumulate(tile_loads.begin(),
                                         tile_loads.end(), 0.0);
    if (total <= 0.0) return 0.0;
    const double mean = total / static_cast<double>(tile_loads.size());
    const double max =
        static_cast<double>(*std::max_element(tile_loads.begin(),
                                              tile_loads.end()));
    return max / mean;
  }

  const CompiledProgram& prog_;
  const AcceleratorConfig& cfg_;
  const TileParams& tp_;
  const PhaseSpec& ph_;
  const AnalysisOptions& options_;
  const PhaseFootprint fp_;
  std::uint64_t write_served_ = 0;
  double imbalance_ = 0.0;
};

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::string human_bytes(std::uint64_t b) {
  std::ostringstream os;
  os << b << "B";
  return os.str();
}

}  // namespace

ProgramAnalysis analyze_program(const CompiledProgram& prog,
                                const AcceleratorConfig& cfg,
                                const AnalysisOptions& options) {
  ProgramAnalysis pa;
  pa.program_name = prog.name;
  pa.config_name = cfg.name;
  pa.phases.reserve(prog.phases.size());
  for (const PhaseSpec& ph : prog.phases) {
    PhaseAnalyzer az(prog, cfg, ph, options);
    PhaseModel m = az.run();
    m.imbalance = az.imbalance();
    pa.bound_cycles += m.bound_cycles;
    pa.phases.push_back(std::move(m));
  }
  return pa;
}

std::vector<PerfDiagnostic> perf_lints(const CompiledProgram& prog,
                                       const AcceleratorConfig& cfg,
                                       const AnalysisOptions& options) {
  std::vector<PerfDiagnostic> out;
  const TileParams& tp = cfg.tile_params;
  if (tp.dnq_queue0_sixteenths > 16) return out;  // GV010 owns this
  const ProgramAnalysis pa = analyze_program(prog, cfg, options);
  const std::uint64_t healthy = min_healthy_concurrency(tp);

  for (std::size_t i = 0; i < pa.phases.size(); ++i) {
    const PhaseModel& m = pa.phases[i];
    const int pi = static_cast<int>(i);

    // GV108: the NoC, not memory, bounds the phase. Partial lines waste
    // DRAM bandwidth but not interconnect bandwidth, so the two terms see
    // different bytes: line-rounded served bytes on the memory bus, the
    // request payload on the mesh.
    if (m.noc_cycles > m.memory_cycles) {
      std::ostringstream os;
      os << "NoC term (" << m.noc_cycles << " cycles: half of the "
         << human_bytes(m.payload_bytes) << " request payload across the "
         << cfg.mesh_width << "x" << cfg.mesh_height
         << " mesh bisection) exceeds the memory term (" << m.memory_cycles
         << " cycles: " << human_bytes(m.read_bytes + m.write_bytes)
         << " served): the NoC, not memory, bounds this phase";
      out.push_back({LintCode::kNocBisectionSaturated, pi, os.str()});
    }

    // GV201: reuse-distance thrash. Concurrency below a quarter of the
    // GPE thread pool (but not below 2 — GV101/GV102 own the serialized
    // case) means most threads stall on allocation and entries are
    // evicted (completed + reallocated) well inside one reuse distance.
    const auto check_thrash = [&](const QueueOccupancy& q,
                                  const char* what) {
      if (!q.used || q.concurrency < 2 || q.concurrency >= healthy) return;
      std::ostringstream os;
      os << what << " admits only " << q.concurrency
         << " concurrent entries (" << human_bytes(q.entry_bytes) << " of "
         << human_bytes(q.capacity_bytes) << ") but " << tp.gpe_threads
         << " GPE threads keep ~" << tp.gpe_threads
         << " entries in flight: reuse distance exceeds the scratchpad, "
            "most threads will stall on allocation";
      out.push_back({LintCode::kReuseDistanceThrash, pi, os.str()});
    };
    check_thrash(m.dnq0, "DNQ virtual queue 0");
    check_thrash(m.dnq1, "DNQ virtual queue 1");
    check_thrash(m.agg, "AGG data scratchpad");

    // GV202: virtual-queue split starvation — the current split starves
    // one queue below 2 concurrent entries while some other split gives
    // both at least 2. (When no split can, GV102 already covers it.)
    if (m.dnq0.used && m.dnq1.used) {
      const std::uint64_t cur_min =
          std::min(m.dnq0.concurrency, m.dnq1.concurrency);
      if (cur_min < 2) {
        bool fixable = false;
        for (std::uint32_t s = 0; s <= 16 && !fixable; ++s) {
          const PhaseFootprint fp = footprint_at(prog.phases[i], tp, s);
          fixable = fp.dnq0_concurrency() >= 2 && fp.dnq1_concurrency() >= 2;
        }
        if (fixable) {
          std::ostringstream os;
          os << "virtual-queue split " << tp.dnq_queue0_sixteenths
             << "/16 starves queue "
             << (m.dnq0.concurrency <= m.dnq1.concurrency ? 0 : 1)
             << " (queue 0: " << m.dnq0.concurrency
             << " entries, queue 1: " << m.dnq1.concurrency
             << "); another split admits >= 2 entries in both queues";
          out.push_back({LintCode::kQueueSplitStarved, pi, os.str()});
        }
      }
    }

    // GV204: partition imbalance — the modeled partition concentrates
    // the phase's contribution load on few tiles.
    if (cfg.num_tiles() > 1 && m.imbalance >= kImbalanceThreshold) {
      std::ostringstream os;
      os << "modeled per-tile load imbalance (max/mean) is "
         << m.imbalance << " under the "
         << graph::partition_name(options.partition)
         << " partition: the heaviest tile does " << m.imbalance
         << "x the mean work and bounds the phase";
      out.push_back({LintCode::kPartitionImbalance, pi, os.str()});
    }
  }

  // GV203: predicted bank camping (whole-program: a property of the
  // address mapping, not of any one phase). Controller m serves granules
  // g with (g / gpp) % M == m, where gpp = page granules; the bank index
  // g % banks then only reaches min(1, gpp/d) of the banks, with
  // d = gcd(M * gpp, banks). When gpp < d, every controller camps on a
  // strict subset of its banks and FR-FCFS bank parallelism is wasted.
  const mem::MemParams& mp = cfg.mem_params;
  if (mp.scheduler == mem::MemScheduler::kFrFcfs && mp.banks > 1 &&
      !mp.bank_xor && mp.bank_interleave_bytes > 0 &&
      cfg.interleave_bytes % mp.bank_interleave_bytes == 0 &&
      cfg.num_mem_nodes() > 0) {
    const std::uint64_t gpp =
        cfg.interleave_bytes / mp.bank_interleave_bytes;
    const std::uint64_t d =
        gcd_u64(std::uint64_t{cfg.num_mem_nodes()} * gpp, mp.banks);
    if (gpp < d) {
      std::ostringstream os;
      os << "predicted bank camping: with " << cfg.num_mem_nodes()
         << " controllers at " << cfg.interleave_bytes
         << "B page interleave and " << mp.bank_interleave_bytes
         << "B bank interleave, each controller's traffic reaches only "
         << gpp << "/" << d << " of its " << mp.banks
         << " banks (bank = granule % banks repeats with period gcd = "
         << d << "): FR-FCFS bank parallelism is wasted; set "
            "mem_bank_xor=1 to permute banks across rows";
      out.push_back({LintCode::kBankCamping, -1, os.str()});
    }
  }

  return out;
}

namespace {

bool lints_have(const std::vector<PerfDiagnostic>& lints, LintCode code) {
  return std::any_of(lints.begin(), lints.end(),
                     [code](const PerfDiagnostic& d) {
                       return d.code == code;
                     });
}

}  // namespace

std::vector<FixSuggestion> suggest_fixes(const CompiledProgram& prog,
                                         const AcceleratorConfig& cfg,
                                         const AnalysisOptions& options) {
  std::vector<FixSuggestion> out;
  const std::vector<PerfDiagnostic> lints = perf_lints(prog, cfg, options);
  if (lints.empty()) return out;
  const TileParams& tp = cfg.tile_params;
  const ProgramAnalysis pa = analyze_program(prog, cfg, options);
  const std::uint64_t healthy = min_healthy_concurrency(tp);

  const auto verify_fix = [&](FixSuggestion& fix) {
    AnalysisOptions patched_options = options;
    patched_options.partition = fix.partition;
    fix.verified =
        !lints_have(perf_lints(prog, fix.patched, patched_options),
                    fix.code);
  };

  // ---- GV201: grow the starved scratchpad(s) to `healthy` entries ----
  if (lints_have(lints, LintCode::kReuseDistanceThrash)) {
    std::uint64_t need_agg = 0;
    std::uint64_t need_dnq = 0;
    for (const PhaseModel& m : pa.phases) {
      const auto thrashes = [&](const QueueOccupancy& q) {
        return q.used && q.concurrency >= 2 && q.concurrency < healthy;
      };
      if (thrashes(m.agg)) {
        need_agg = std::max(need_agg, healthy * m.agg.entry_bytes);
      }
      // DNQ capacity flows through the split: queue 0 gets s/16 of the
      // scratchpad on dna2 phases (all of it otherwise), queue 1 the
      // rest — solve the total back through the active split.
      const std::uint32_t s = tp.dnq_queue0_sixteenths;
      if (thrashes(m.dnq0)) {
        const std::uint64_t need_q0 = healthy * m.dnq0.entry_bytes;
        const bool split_applies = m.dnq1.used || m.dnq1.capacity_bytes > 0;
        const std::uint64_t total =
            split_applies && s > 0 ? (need_q0 * 16 + s - 1) / s : need_q0;
        need_dnq = std::max(need_dnq, total);
      }
      if (thrashes(m.dnq1) && s < 16) {
        const std::uint64_t need_q1 = healthy * m.dnq1.entry_bytes;
        need_dnq = std::max(need_dnq,
                            (need_q1 * 16 + (16 - s) - 1) / (16 - s));
      }
    }
    FixSuggestion fix;
    fix.code = LintCode::kReuseDistanceThrash;
    fix.patched = cfg;
    fix.partition = options.partition;
    std::ostringstream desc;
    std::ostringstream snippet;
    desc << "grow the thrashing scratchpad(s) to admit " << healthy
         << " concurrent entries (a quarter of the " << tp.gpe_threads
         << "-thread GPE pool):";
    if (need_agg > 0) {
      const std::uint64_t agg = (need_agg + 63) / 64 * 64;
      fix.patched.tile_params.agg_data_bytes =
          static_cast<std::uint32_t>(agg);
      desc << " agg_data_bytes " << tp.agg_data_bytes << " -> " << agg
           << ";";
      snippet << "tile_agg_data_bytes=" << agg << "\n";
    }
    if (need_dnq > 0) {
      const std::uint64_t dnq = (need_dnq + 63) / 64 * 64;
      fix.patched.tile_params.dnq_data_bytes =
          static_cast<std::uint32_t>(dnq);
      desc << " dnq_data_bytes " << tp.dnq_data_bytes << " -> " << dnq
           << ";";
      snippet << "tile_dnq_data_bytes=" << dnq << "\n";
    }
    fix.description = desc.str();
    fix.manifest_snippet = snippet.str();
    verify_fix(fix);
    out.push_back(std::move(fix));
  }

  // Shared by the GV202 and joint GV202+GV204 searches: the split
  // maximizing the worst queue's concurrency across all dna2 phases (the
  // entry footprints don't depend on the partition, so one search serves
  // both); ties prefer the split closest to the balanced 8/16.
  std::uint32_t best_s = tp.dnq_queue0_sixteenths;
  std::uint64_t best_min = 0;
  {
    for (std::uint32_t s = 0; s <= 16; ++s) {
      std::uint64_t worst = ~std::uint64_t{0};
      bool any = false;
      for (std::size_t i = 0; i < pa.phases.size(); ++i) {
        const PhaseModel& m = pa.phases[i];
        if (!(m.dnq0.used && m.dnq1.used)) continue;
        any = true;
        const PhaseFootprint fp = footprint_at(prog.phases[i], tp, s);
        worst = std::min(
            {worst, fp.dnq0_concurrency(), fp.dnq1_concurrency()});
      }
      if (!any) break;
      const auto dist = [](std::uint32_t a) {
        return a >= 8 ? a - 8 : 8 - a;
      };
      if (worst > best_min ||
          (worst == best_min && dist(s) < dist(best_s))) {
        best_min = worst;
        best_s = s;
      }
    }
  }

  // ---- GV202 + GV204 together: joint split x partition search ----
  // Fixing the split under the imbalanced partition (or the partition
  // under the starved split) re-lints against a configuration that still
  // fires the other code, so per-lint greedy fixes can never verify.
  // Search the (split, partition) plane jointly instead and emit one
  // suggestion per code sharing the joint configuration.
  const bool joint = lints_have(lints, LintCode::kQueueSplitStarved) &&
                     lints_have(lints, LintCode::kPartitionImbalance);
  if (joint) {
    AcceleratorConfig patched = cfg;
    patched.tile_params.dnq_queue0_sixteenths = best_s;
    const graph::PartitionPolicy candidates[] = {
        graph::PartitionPolicy::kBlock,
        graph::PartitionPolicy::kRoundRobin,
        graph::PartitionPolicy::kProfileGuided,
    };
    graph::PartitionPolicy chosen = graph::PartitionPolicy::kProfileGuided;
    bool cleared = false;
    for (const auto p : candidates) {
      if (p == options.partition) continue;
      AnalysisOptions po = options;
      po.partition = p;
      const auto relint = perf_lints(prog, patched, po);
      if (!lints_have(relint, LintCode::kQueueSplitStarved) &&
          !lints_have(relint, LintCode::kPartitionImbalance)) {
        chosen = p;
        cleared = true;
        break;
      }
    }
    const std::string snippet =
        "tile_dnq_queue0_sixteenths=" + std::to_string(best_s) +
        "\npartition=" + std::string(graph::partition_name(chosen)) + "\n";
    AnalysisOptions chosen_options = options;
    chosen_options.partition = chosen;
    const auto relint = perf_lints(prog, patched, chosen_options);
    const bool verified =
        cleared && !lints_have(relint, LintCode::kQueueSplitStarved) &&
        !lints_have(relint, LintCode::kPartitionImbalance);
    for (const auto code : {LintCode::kQueueSplitStarved,
                            LintCode::kPartitionImbalance}) {
      FixSuggestion fix;
      fix.code = code;
      fix.patched = patched;
      fix.partition = chosen;
      std::ostringstream desc;
      desc << "joint split x partition fix: dnq_queue0_sixteenths "
           << tp.dnq_queue0_sixteenths << "/16 -> " << best_s
           << "/16 (every active queue >= " << best_min
           << " concurrent entries) with the " << graph::partition_name(chosen)
           << " partition"
           << (chosen == graph::PartitionPolicy::kProfileGuided
                   ? " (add attribution_from=<profile.json> to the "
                     "manifest)"
                   : "")
           << " — searched jointly because fixing either lint alone "
              "re-fires the other";
      fix.description = desc.str();
      fix.manifest_snippet = snippet;
      fix.verified = verified;
      out.push_back(std::move(fix));
    }
  }

  // ---- GV202: rebalance the virtual-queue split ----
  if (!joint && lints_have(lints, LintCode::kQueueSplitStarved)) {
    FixSuggestion fix;
    fix.code = LintCode::kQueueSplitStarved;
    fix.patched = cfg;
    fix.patched.tile_params.dnq_queue0_sixteenths = best_s;
    fix.partition = options.partition;
    std::ostringstream desc;
    desc << "rebalance the DNQ virtual-queue split: dnq_queue0_sixteenths "
         << tp.dnq_queue0_sixteenths << "/16 -> " << best_s
         << "/16 gives every active queue >= " << best_min
         << " concurrent entries";
    fix.description = desc.str();
    fix.manifest_snippet =
        "tile_dnq_queue0_sixteenths=" + std::to_string(best_s) + "\n";
    verify_fix(fix);
    out.push_back(std::move(fix));
  }

  // ---- GV203: XOR-permute the bank mapping ----
  if (lints_have(lints, LintCode::kBankCamping)) {
    FixSuggestion fix;
    fix.code = LintCode::kBankCamping;
    fix.patched = cfg;
    fix.patched.mem_params.bank_xor = true;
    fix.partition = options.partition;
    fix.description =
        "enable the XOR bank permutation (bank ^= row % banks): rows then "
        "rotate the camped traffic across all banks, restoring FR-FCFS "
        "bank parallelism without moving any data";
    fix.manifest_snippet = "mem_bank_xor=1\n";
    verify_fix(fix);
    out.push_back(std::move(fix));
  }

  // ---- GV204: change the partition policy ----
  if (!joint && lints_have(lints, LintCode::kPartitionImbalance)) {
    FixSuggestion fix;
    fix.code = LintCode::kPartitionImbalance;
    fix.patched = cfg;
    // Prefer block (statically verifiable here); fall back to
    // profile-guided, which LPT-packs measured loads and is modeled as
    // balanced — it needs `attribution_from=<profile.json>` at run time.
    AnalysisOptions block_options = options;
    block_options.partition = graph::PartitionPolicy::kBlock;
    if (options.partition != graph::PartitionPolicy::kBlock &&
        !lints_have(perf_lints(prog, cfg, block_options),
                    LintCode::kPartitionImbalance)) {
      fix.partition = graph::PartitionPolicy::kBlock;
      fix.description =
          "switch to the block partition: contiguous vertex ranges spread "
          "this layout's heavy vertices evenly across tiles";
      fix.manifest_snippet = "partition=block\n";
    } else {
      fix.partition = graph::PartitionPolicy::kProfileGuided;
      fix.description =
          "switch to profile-guided partitioning (LPT over a prior run's "
          "measured per-vertex load; add attribution_from=<profile.json> "
          "to the manifest): no static policy balances this load";
      fix.manifest_snippet = "partition=profile-guided\n";
    }
    verify_fix(fix);
    out.push_back(std::move(fix));
  }

  return out;
}

}  // namespace gnna::accel
