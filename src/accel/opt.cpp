#include "accel/opt.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/types.hpp"

namespace gnna::accel::opt {

namespace {

/// Number of places `p` references region `id` (graph tables + every
/// semantically live phase field — a kProject gather and a weight_region
/// with no weight bytes are never read).
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

/// The one phase replacing gather+aggregate `a` and the projection `b`
/// consuming its output: `a`'s traversal feeding `b`'s DNA model.
PhaseSpec fuse(const PhaseSpec& a, const PhaseSpec& b) {
  PhaseSpec f = a;
  f.name = a.name + "+" + b.name;
  f.dna_shapes = b.dna_shapes;
  f.dna_out_words = b.dna_out_words;
  f.output = b.output;
  f.weight_bytes = b.weight_bytes;
  f.weight_region = b.weight_region;
  return f;
}

/// Can phases[i] (a) and phases[i+1] (b) fuse? Mirrors the validator's
/// match_fusion preconditions (validate.cpp) plus the scratchpad footprint
/// bound: the fused phase's DNQ entries must still admit >= 2 at once, or
/// fusion would trade a barrier for thread serialization.
bool fusable(const CompiledProgram& p, const PhaseSpec& a, const PhaseSpec& b,
             const TileParams& tp) {
  if (a.kind != PhaseKind::kGatherAggregate || a.has_dna() || !a.has_agg() ||
      a.per_graph || a.weight_bytes > 0 || !a.extra_inputs.empty() ||
      a.extra_inputs_per_edge || a.gpe_words_per_entry != 0 || a.has_dna2() ||
      a.dna2_gpe_words != 0 || a.output.width_words != a.agg_width_words) {
    return false;
  }
  if (b.kind != PhaseKind::kProject || !b.has_dna() || b.has_dna2() ||
      b.per_graph || b.extra_inputs_per_edge || b.gpe_words_per_entry != 0 ||
      b.extra_inputs.size() != 1) {
    return false;
  }
  if (b.extra_inputs[0].region != a.output.region ||
      b.extra_inputs[0].width_words != a.output.width_words) {
    return false;
  }
  if (a.output.region >= p.memmap.num_regions() ||
      p.memmap.region(a.output.region).preloaded) {
    return false;
  }
  if (use_count(p, a.output.region) != 2) return false;
  return phase_footprint(fuse(a, b), tp).dnq0_concurrency() >= 2;
}

bool pass_fuse_phases(CompiledProgram& p, const TileParams& tp,
                      std::string* summary) {
  std::size_t fused = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i + 1 < p.phases.size(); ++i) {
      if (!fusable(p, p.phases[i], p.phases[i + 1], tp)) continue;
      p.phases[i] = fuse(p.phases[i], p.phases[i + 1]);
      p.phases.erase(p.phases.begin() +
                     static_cast<std::ptrdiff_t>(i + 1));
      ++fused;
      progress = true;
      break;
    }
  }
  *summary = fused > 0 ? std::to_string(fused) + " phase pair(s) fused"
                       : "no fusable phase pairs";
  return fused > 0;
}

bool pass_dedup_contribs(CompiledProgram& p, std::string* summary) {
  std::size_t tables = 0;
  std::uint64_t entries = 0;
  for (auto& ph : p.phases) {
    if (ph.walk_len <= 1 && !ph.expected_contribs.empty()) {
      ++tables;
      entries += ph.expected_contribs.size();
      ph.expected_contribs.clear();
    }
  }
  *summary = tables > 0 ? std::to_string(tables) + " unused table(s), " +
                              std::to_string(entries) + " entries dropped"
                        : "no unused expected_contribs tables";
  return tables > 0;
}

bool pass_dead_regions(CompiledProgram& p, std::string* summary) {
  std::vector<bool> alive(p.memmap.num_regions(), false);
  for (const auto& g : p.graphs) {
    if (g.row_ptr < alive.size()) alive[g.row_ptr] = true;
    if (g.col_idx < alive.size()) alive[g.col_idx] = true;
  }
  for (const auto& ph : p.phases) {
    auto mark = [&](RegionId id) {
      if (id < alive.size()) alive[id] = true;
    };
    if (ph.kind != PhaseKind::kProject) mark(ph.gather.region);
    for (const auto& b : ph.extra_inputs) mark(b.region);
    mark(ph.output.region);
    if (ph.weight_bytes > 0) mark(ph.weight_region);
  }

  std::size_t dead = 0;
  for (const auto live : alive) dead += static_cast<std::size_t>(!live);
  if (dead == 0) {
    *summary = "no dead regions";
    return false;
  }

  // Rebuild the map keeping each surviving region at its original base
  // (pack-regions closes the gaps), and renumber every reference.
  MemoryMap packed;
  std::map<RegionId, RegionId> renum;
  for (RegionId id = 0; id < alive.size(); ++id) {
    if (!alive[id]) continue;
    const Region& r = p.memmap.region(id);
    renum[id] = packed.add_region_at(r.name, r.base, r.bytes, r.preloaded);
  }
  auto remap = [&](RegionId id) {
    const auto it = renum.find(id);
    // Dead ids only survive in don't-care fields (a kProject gather, a
    // weight_region with no bytes); reset those to region 0.
    return it == renum.end() ? RegionId{0} : it->second;
  };
  for (auto& g : p.graphs) {
    g.row_ptr = remap(g.row_ptr);
    g.col_idx = remap(g.col_idx);
  }
  for (auto& ph : p.phases) {
    ph.gather.region = remap(ph.gather.region);
    for (auto& b : ph.extra_inputs) b.region = remap(b.region);
    ph.output.region = remap(ph.output.region);
    ph.weight_region = remap(ph.weight_region);
  }
  p.memmap = std::move(packed);
  *summary = std::to_string(dead) + " dead region(s) removed";
  return true;
}

bool pass_pack_regions(CompiledProgram& p, std::string* summary) {
  MemoryMap packed;
  bool moved = false;
  std::uint64_t reclaimed = 0;
  for (RegionId id = 0; id < p.memmap.num_regions(); ++id) {
    const Region& r = p.memmap.region(id);
    const RegionId nid = packed.add_region(r.name, r.bytes, r.preloaded);
    if (packed.region(nid).base != r.base) {
      moved = true;
      reclaimed = p.memmap.total_bytes() - packed.total_bytes();
    }
  }
  if (!moved) {
    *summary = "layout already packed";
    return false;
  }
  p.memmap = std::move(packed);
  *summary = "regions repacked, " + std::to_string(reclaimed) +
             " bytes reclaimed";
  return true;
}

}  // namespace

const std::vector<PassInfo>& pass_catalog() {
  static const std::vector<PassInfo> kCatalog = {
      {"fuse-phases",
       "fuse a pure gather+aggregate into the projection consuming its "
       "output (removes one barrier and one memory round-trip)"},
      {"dedup-contribs",
       "drop expected_contribs tables the runtime provably never reads "
       "(walk_len <= 1 gathers use CSR degrees)"},
      {"dead-regions",
       "remove memory-map regions nothing references, renumbering ids"},
      {"pack-regions",
       "re-layout the memory map to the packed 64B-aligned cursor, "
       "closing gaps"},
  };
  return kCatalog;
}

OptimizeResult optimize_program(const CompiledProgram& prog,
                                const OptimizeOptions& options) {
  const TileParams tp = options.config != nullptr ? options.config->tile_params
                                                  : TileParams{};
  using PassFn = std::function<bool(CompiledProgram&, std::string*)>;
  const std::map<std::string, PassFn> registry = {
      {"fuse-phases",
       [&tp](CompiledProgram& p, std::string* s) {
         return pass_fuse_phases(p, tp, s);
       }},
      {"dedup-contribs",
       [](CompiledProgram& p, std::string* s) {
         return pass_dedup_contribs(p, s);
       }},
      {"dead-regions",
       [](CompiledProgram& p, std::string* s) {
         return pass_dead_regions(p, s);
       }},
      {"pack-regions",
       [](CompiledProgram& p, std::string* s) {
         return pass_pack_regions(p, s);
       }},
  };

  std::vector<std::string> pipeline = options.passes;
  if (pipeline.empty()) {
    for (const auto& info : pass_catalog()) pipeline.emplace_back(info.name);
  }
  for (const auto& name : pipeline) {
    if (registry.find(name) == registry.end()) {
      throw std::invalid_argument("optimize_program: unknown pass '" + name +
                                  "'");
    }
  }

  validate::ValidationOptions vopts;
  vopts.dataset = options.dataset;
  vopts.config = options.config;

  OptimizeResult res;
  res.program = prog;
  for (const auto& name : pipeline) {
    CompiledProgram before = res.program;
    PassOutcome outcome;
    outcome.pass = name;
    outcome.changed = registry.at(name)(res.program, &outcome.summary);
    if (outcome.changed) {
      outcome.validation =
          validate::validate_transform(before, res.program, vopts);
      if (!outcome.validation.equivalent) {
        // Refuse the unproven rewrite: roll back to the last proven
        // program and stop the pipeline.
        res.validated = false;
        res.failure = "pass '" + name + "' failed translation validation:\n" +
                      outcome.validation.to_string();
        res.program = std::move(before);
        res.passes.push_back(std::move(outcome));
        break;
      }
    }
    res.passes.push_back(std::move(outcome));
  }
  return res;
}

}  // namespace gnna::accel::opt
