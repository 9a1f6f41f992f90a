#include "accel/validate.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <variant>

#include "accel/analysis.hpp"
#include "accel/ir.hpp"
#include "accel/verify.hpp"

namespace gnna::accel::validate {

namespace {

// Bijective optimized->original region renaming, grown one binding at a
// time as the structural diff walks both programs. A single region trying
// to map to two different peers (in either direction) is exactly an
// illegal reorder/drop/duplication, so bind() failing is the proof
// failing.
class RegionMap {
 public:
  bool bind(RegionId opt_id, RegionId orig_id, std::string* why) {
    const auto f = fwd_.find(opt_id);
    if (f != fwd_.end() && f->second != orig_id) {
      *why = "optimized region " + std::to_string(opt_id) +
             " maps to both original regions " + std::to_string(f->second) +
             " and " + std::to_string(orig_id);
      return false;
    }
    const auto r = rev_.find(orig_id);
    if (r != rev_.end() && r->second != opt_id) {
      *why = "original region " + std::to_string(orig_id) +
             " maps to both optimized regions " + std::to_string(r->second) +
             " and " + std::to_string(opt_id);
      return false;
    }
    fwd_.emplace(opt_id, orig_id);
    rev_.emplace(orig_id, opt_id);
    return true;
  }

  [[nodiscard]] const std::map<RegionId, RegionId>& forward() const {
    return fwd_;
  }

 private:
  std::map<RegionId, RegionId> fwd_;  // optimized -> original
  std::map<RegionId, RegionId> rev_;  // original -> optimized
};

/// One aligned (original, optimized) phase pair; a fused pair covers two
/// adjacent original phases.
struct PhasePair {
  std::size_t orig_a = 0;  // gather side of a fusion, or the 1:1 match
  std::size_t orig_b = 0;  // projection side of a fusion (== orig_a if not)
  std::size_t opt = 0;
  bool fused = false;
};

bool shapes_equal(const std::vector<dataflow::MatmulShape>& a,
                  const std::vector<dataflow::MatmulShape>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].m != b[i].m || a[i].k != b[i].k || a[i].n != b[i].n ||
        a[i].weight_density != b[i].weight_density) {
      return false;
    }
  }
  return true;
}

bool bind_ref(const BufferRef& opt, const BufferRef& orig, RegionMap* map,
              std::string* why) {
  if (opt.width_words != orig.width_words) {
    *why = "buffer width " + std::to_string(opt.width_words) + " != " +
           std::to_string(orig.width_words);
    return false;
  }
  return map->bind(opt.region, orig.region, why);
}

/// Number of places the original program references `id` (the def-use
/// fan-in/out a fusion's intermediate must keep private to the pair).
std::size_t use_count(const CompiledProgram& p, RegionId id) {
  std::size_t n = 0;
  for (const auto& g : p.graphs) {
    n += static_cast<std::size_t>(g.row_ptr == id);
    n += static_cast<std::size_t>(g.col_idx == id);
  }
  for (const auto& ph : p.phases) {
    if (ph.kind != PhaseKind::kProject) {
      n += static_cast<std::size_t>(ph.gather.region == id);
    }
    for (const auto& b : ph.extra_inputs) {
      n += static_cast<std::size_t>(b.region == id);
    }
    n += static_cast<std::size_t>(ph.output.region == id);
    if (ph.weight_bytes > 0) {
      n += static_cast<std::size_t>(ph.weight_region == id);
    }
  }
  return n;
}

/// Field-by-field 1:1 phase match modulo region renaming. Don't-care
/// fields (kProject gather, weight_region with weight_bytes == 0, the
/// phase name, expected_contribs — the contribs obligation owns those) are
/// skipped.
bool match_phase(const PhaseSpec& opt, const PhaseSpec& orig, RegionMap* map,
                 std::string* why) {
  auto fail = [&](const char* what) {
    *why = std::string(what) + " differs";
    return false;
  };
  for (const ir::PhaseField& f : ir::phase_fields()) {
    if (f.names_region) continue;  // bound under renaming below
    const bool same = std::visit(
        [&](auto member) { return opt.*member == orig.*member; }, f.member);
    if (!same) return fail(f.name);
  }
  if (!shapes_equal(opt.dna_shapes, orig.dna_shapes)) return fail("dna_shapes");
  if (!shapes_equal(opt.dna2_shapes, orig.dna2_shapes)) {
    return fail("dna2_shapes");
  }
  if (opt.extra_inputs.size() != orig.extra_inputs.size()) {
    return fail("extra_inputs count");
  }
  // A failed binding names the field it came from.
  auto bound = [&](const char* field, bool ok) {
    if (!ok) *why = std::string(field) + ": " + *why;
    return ok;
  };
  if (opt.kind != PhaseKind::kProject &&
      !bound("gather", bind_ref(opt.gather, orig.gather, map, why))) {
    return false;
  }
  for (std::size_t i = 0; i < opt.extra_inputs.size(); ++i) {
    if (!bound("extra_input",
               bind_ref(opt.extra_inputs[i], orig.extra_inputs[i], map,
                        why))) {
      return false;
    }
  }
  if (!bound("output", bind_ref(opt.output, orig.output, map, why))) {
    return false;
  }
  return opt.weight_bytes == 0 ||
         bound("weight_region",
               map->bind(opt.weight_region, orig.weight_region, why));
}

/// Recognize `opt` as the sound fusion of adjacent original phases
/// (a = gather+aggregate, b = projection): the fused phase must carry a's
/// gather/aggregate fields and b's DNA/output/weight fields, and the
/// intermediate buffer a fed b through must be provably private to the
/// pair — written only by a, read only by b, never preloaded — so
/// removing it is unobservable.
bool match_fusion(const CompiledProgram& orig_prog, const PhaseSpec& opt,
                  const PhaseSpec& a, const PhaseSpec& b, RegionMap* map,
                  std::string* why) {
  auto fail = [&](const std::string& what) {
    *why = "not a sound fusion: " + what;
    return false;
  };
  // Original-side preconditions: a pure gather+aggregate feeding a pure
  // single-input projection through a private intermediate.
  if (a.kind != PhaseKind::kGatherAggregate || a.has_dna() || !a.has_agg() ||
      a.per_graph || a.weight_bytes > 0 || !a.extra_inputs.empty() ||
      a.extra_inputs_per_edge || a.gpe_words_per_entry != 0 || a.has_dna2() ||
      a.dna2_gpe_words != 0 || a.output.width_words != a.agg_width_words) {
    return fail("producer is not a pure gather+aggregate");
  }
  if (b.kind != PhaseKind::kProject || !b.has_dna() || b.has_dna2() ||
      b.per_graph || b.extra_inputs_per_edge || b.gpe_words_per_entry != 0 ||
      b.extra_inputs.size() != 1) {
    return fail("consumer is not a pure single-input projection");
  }
  if (b.extra_inputs[0].region != a.output.region ||
      b.extra_inputs[0].width_words != a.output.width_words) {
    return fail("consumer does not read exactly the producer's output");
  }
  const Region& mid = orig_prog.memmap.region(a.output.region);
  if (mid.preloaded) return fail("intermediate buffer is preloaded");
  if (use_count(orig_prog, a.output.region) != 2) {
    return fail("intermediate buffer '" + mid.name +
                "' has uses outside the fused pair");
  }
  // Fused-side shape: a's gather/aggregate stage plus b's DNA stage.
  if (opt.kind != PhaseKind::kGatherAggregate ||
      opt.include_self != a.include_self ||
      opt.weighted_edges != a.weighted_edges || opt.walk_len != a.walk_len ||
      !opt.extra_inputs.empty() || opt.extra_inputs_per_edge ||
      opt.gpe_words_per_entry != 0 ||
      opt.agg_width_words != a.agg_width_words || opt.agg_op != a.agg_op ||
      opt.has_dna2() || opt.dna2_gpe_words != 0 || opt.per_graph) {
    return fail("fused phase does not preserve the gather+aggregate stage");
  }
  if (!shapes_equal(opt.dna_shapes, b.dna_shapes) ||
      opt.dna_out_words != b.dna_out_words ||
      opt.weight_bytes != b.weight_bytes) {
    return fail("fused phase does not preserve the projection stage");
  }
  if (!bind_ref(opt.gather, a.gather, map, why)) return false;
  if (!bind_ref(opt.output, b.output, map, why)) return false;
  if (opt.weight_bytes > 0 &&
      !map->bind(opt.weight_region, b.weight_region, why)) {
    return false;
  }
  return true;
}

std::set<std::uint16_t> error_codes(const VerifyReport& report) {
  std::set<std::uint16_t> codes;
  for (const auto& d : report.diagnostics) {
    if (d.severity == Severity::kError) {
      codes.insert(static_cast<std::uint16_t>(d.code));
    }
  }
  return codes;
}

}  // namespace

std::string ValidationResult::to_string() const {
  std::ostringstream os;
  for (const auto& ob : obligations) {
    os << (ob.proved ? "PROVED " : "FAILED ") << ob.name;
    if (!ob.detail.empty()) os << ": " << ob.detail;
    os << '\n';
  }
  return os.str();
}

ValidationResult validate_transform(const CompiledProgram& original,
                                    const CompiledProgram& optimized,
                                    const ValidationOptions& options) {
  ValidationResult res;
  RegionMap map;
  std::vector<PhasePair> pairs;

  // --- phase-align: order-preserving structural diff, fusion-aware ---
  Obligation align;
  align.name = "phase-align";
  align.proved = true;
  {
    std::string why;
    // Bind the per-graph topology tables first: they anchor the region
    // map before any phase is compared.
    if (optimized.graphs.size() != original.graphs.size()) {
      align.proved = false;
      align.detail = "graph table size differs (" +
                     std::to_string(optimized.graphs.size()) + " vs " +
                     std::to_string(original.graphs.size()) + ")";
    }
    for (std::size_t g = 0; align.proved && g < optimized.graphs.size();
         ++g) {
      const auto& og = optimized.graphs[g];
      const auto& rg = original.graphs[g];
      if (og.node_offset != rg.node_offset ||
          og.edge_offset != rg.edge_offset || og.num_nodes != rg.num_nodes ||
          og.num_edges != rg.num_edges) {
        align.proved = false;
        align.detail = "graph " + std::to_string(g) + " counts/offsets differ";
        break;
      }
      if (!map.bind(og.row_ptr, rg.row_ptr, &why) ||
          !map.bind(og.col_idx, rg.col_idx, &why)) {
        align.proved = false;
        align.detail = "graph " + std::to_string(g) + ": " + why;
        break;
      }
    }
    std::size_t i = 0;  // original phase cursor
    std::size_t j = 0;  // optimized phase cursor
    while (align.proved && j < optimized.phases.size()) {
      if (i >= original.phases.size()) {
        align.proved = false;
        align.detail = "optimized phase '" + optimized.phases[j].name +
                       "' has no original counterpart";
        break;
      }
      // Attempt the 1:1 match and the 2:1 fusion match each on a scratch
      // copy of the map, so a failed attempt leaves no stray bindings.
      RegionMap one = map;
      std::string one_why;
      if (match_phase(optimized.phases[j], original.phases[i], &one,
                      &one_why)) {
        map = std::move(one);
        pairs.push_back({i, i, j, false});
        ++i;
        ++j;
        continue;
      }
      if (i + 1 < original.phases.size()) {
        RegionMap two = map;
        std::string two_why;
        if (match_fusion(original, optimized.phases[j], original.phases[i],
                         original.phases[i + 1], &two, &two_why)) {
          map = std::move(two);
          pairs.push_back({i, i + 1, j, true});
          i += 2;
          ++j;
          continue;
        }
        align.proved = false;
        align.detail = "optimized phase '" + optimized.phases[j].name +
                       "' matches neither original phase '" +
                       original.phases[i].name + "' (" + one_why +
                       ") nor its fusion with '" +
                       original.phases[i + 1].name + "' (" + two_why + ")";
        break;
      }
      align.proved = false;
      align.detail = "optimized phase '" + optimized.phases[j].name +
                     "' does not match original phase '" +
                     original.phases[i].name + "': " + one_why;
      break;
    }
    if (align.proved && i < original.phases.size()) {
      align.proved = false;
      align.detail = "original phase '" + original.phases[i].name +
                     "' was dropped";
    }
    if (align.proved) {
      align.detail = std::to_string(pairs.size()) + " phase pair(s), " +
                     std::to_string(map.forward().size()) +
                     " region binding(s)";
    }
  }
  res.obligations.push_back(align);

  // --- def-use: the region map is an isomorphism on attributes ---
  Obligation defuse;
  defuse.name = "def-use";
  defuse.proved = align.proved;
  if (!align.proved) {
    defuse.detail = "skipped: phase alignment failed";
  } else {
    for (const auto& [opt_id, orig_id] : map.forward()) {
      if (opt_id >= optimized.memmap.num_regions() ||
          orig_id >= original.memmap.num_regions()) {
        defuse.proved = false;
        defuse.detail = "region binding references a missing region";
        break;
      }
      const Region& o = optimized.memmap.region(opt_id);
      const Region& r = original.memmap.region(orig_id);
      if (o.bytes != r.bytes) {
        defuse.proved = false;
        defuse.detail = "region '" + r.name + "' resized (" +
                        std::to_string(o.bytes) + " vs " +
                        std::to_string(r.bytes) + " bytes)";
        break;
      }
      if (o.preloaded != r.preloaded) {
        defuse.proved = false;
        defuse.detail = "region '" + r.name + "' preload flag changed";
        break;
      }
      if (r.preloaded && o.name != r.name) {
        defuse.proved = false;
        defuse.detail = "preloaded region '" + r.name + "' renamed to '" +
                        o.name + "' (loader contents are identity-bound)";
        break;
      }
    }
    if (defuse.proved) {
      defuse.detail = std::to_string(map.forward().size()) +
                      " region binding(s) attribute-isomorphic";
    }
  }
  res.obligations.push_back(defuse);

  // --- contribs: tables equal, or dropped only where provably unused ---
  Obligation contribs;
  contribs.name = "contribs";
  contribs.proved = align.proved;
  if (!align.proved) {
    contribs.detail = "skipped: phase alignment failed";
  } else {
    std::size_t pruned = 0;
    for (const auto& pair : pairs) {
      const auto& orig_tab = original.phases[pair.orig_a].expected_contribs;
      const auto& opt_ph = optimized.phases[pair.opt];
      if (opt_ph.expected_contribs == orig_tab) continue;
      if (opt_ph.expected_contribs.empty() && opt_ph.walk_len <= 1) {
        // The runtime consults expected_contribs only for walk_len > 1
        // traversals (direct gathers use the CSR degrees), so the prune
        // is unobservable.
        ++pruned;
        continue;
      }
      contribs.proved = false;
      contribs.detail = "phase '" + opt_ph.name +
                        "': expected_contribs changed and the table is "
                        "live (walk_len > 1)";
      break;
    }
    if (contribs.proved) {
      contribs.detail =
          pruned > 0
              ? std::to_string(pruned) + " provably-unused table(s) pruned"
              : "all tables equal";
      if (options.dataset != nullptr) {
        contribs.detail +=
            "; live tables recomputed vs. walk trees (GV006, extents)";
      }
    }
  }
  res.obligations.push_back(contribs);

  // --- extents: no new error-severity lint in the optimized program ---
  Obligation extents;
  extents.name = "extents";
  {
    const TileParams tp = options.config != nullptr
                              ? options.config->tile_params
                              : TileParams{};
    const auto orig_errs =
        error_codes(verify_program(original, tp, options.dataset));
    const auto opt_errs =
        error_codes(verify_program(optimized, tp, options.dataset));
    std::string introduced;
    for (const auto c : opt_errs) {
      if (orig_errs.count(c) == 0) {
        if (!introduced.empty()) introduced += ", ";
        introduced += lint_code_name(static_cast<LintCode>(c));
      }
    }
    extents.proved = introduced.empty();
    extents.detail = extents.proved
                         ? "no new error diagnostics"
                         : "optimized program introduces " + introduced;
  }
  res.obligations.push_back(extents);

  // --- cycle-bound: the static lower bound never regresses ---
  Obligation bound;
  bound.name = "cycle-bound";
  {
    const AcceleratorConfig cfg = options.config != nullptr
                                      ? *options.config
                                      : AcceleratorConfig::cpu_iso_bw();
    AnalysisOptions ao;
    ao.dataset = options.dataset;
    const double orig_bound = analyze_program(original, cfg, ao).bound_cycles;
    const double opt_bound = analyze_program(optimized, cfg, ao).bound_cycles;
    bound.proved = opt_bound <= orig_bound * (1.0 + 1e-9) + 1e-6;
    std::ostringstream os;
    os << "bound_cycles " << opt_bound << (bound.proved ? " <= " : " > ")
       << orig_bound;
    bound.detail = os.str();
  }
  res.obligations.push_back(bound);

  res.equivalent = true;
  for (const auto& ob : res.obligations) res.equivalent &= ob.proved;
  return res;
}

}  // namespace gnna::accel::validate
