#include "accel/tile.hpp"

#include <algorithm>
#include <cassert>

namespace gnna::accel {

Tile::Tile(const AcceleratorConfig& cfg, noc::MeshNetwork& net,
           EndpointId ep_gpe, EndpointId ep_agg, EndpointId ep_dnq,
           const AddressMap& addr_map)
    : cfg_(cfg),
      net_(net),
      ep_gpe_(ep_gpe),
      ep_agg_(ep_agg),
      ep_dnq_(ep_dnq),
      addr_map_(addr_map),
      ratio_(cfg.clock_ratio()),
      agg_(cfg.tile_params, net, ep_agg, addr_map, ratio_),
      dnq_(cfg.tile_params),
      dna_(cfg.tile_params, net, ep_dnq, addr_map, ratio_, dnq_),
      gpe_(cfg.tile_params, net, ep_gpe, ep_agg, ep_dnq, addr_map, ratio_,
           agg_, dnq_) {}

void Tile::begin_phase(const CompiledProgram& prog, const graph::Dataset& ds,
                       const PhaseSpec& phase,
                       std::vector<std::uint32_t> work) {
  assert(idle() && "begin_phase on a busy tile");

  // Algorithm 1's per-layer CONFIG step: the virtual-queue split and the
  // DNA model timings (one model per virtual queue in use).
  const TileParams& tp = cfg_.tile_params;
  const PhaseFootprint fp = phase_footprint(phase, tp);
  dnq_.configure(fp.dnq0_bytes, fp.dnq1_bytes);
  std::vector<DnaModelTiming> models;
  if (phase.has_dna()) {
    models.push_back(dna_model_timing(phase.dna_shapes, phase.dna_out_words,
                                      tp, cfg_.core_clock));
  }
  if (phase.has_dna2()) {
    assert(phase.has_dna() && "queue-1 model requires a queue-0 model");
    models.push_back(dna_model_timing(phase.dna2_shapes, phase.dna2_out_words,
                                      tp, cfg_.core_clock));
  }
  dna_.configure(std::move(models), phase.weight_bytes);

  // Stream this tile's copy of the weights into the DNA, tagged so the
  // dispatcher can tell weight fills apart from DNQ entry fills.
  if (phase.weight_bytes > 0) {
    send_read(net_, addr_map_, ep_dnq_, kInvalidEndpoint,
              prog.memmap.region(phase.weight_region).base,
              phase.weight_bytes, kWeightTag, noc::kNoOwner);
  }

  gpe_.begin_phase(prog, ds, phase, std::move(work));
}

void Tile::set_tracing(trace::TraceSink* sink, std::uint32_t index) {
  const std::uint64_t* clock = net_.now_ptr();
  gpe_.set_tracer({sink, clock, trace::Category::kGpe, index});
  dnq_.set_tracer({sink, clock, trace::Category::kDnq, index});
  dna_.set_tracer({sink, clock, trace::Category::kDna, index});
  agg_.set_tracer({sink, clock, trace::Category::kAgg, index});
}

void Tile::dump_state(std::ostream& os) const {
  os << "  tile units: gpe " << (gpe_.idle() ? "idle" : "BUSY") << ", agg "
     << (agg_.idle() ? "idle" : "BUSY") << ", dnq "
     << (dnq_.empty() ? "empty" : "OCCUPIED") << ", dna "
     << (dna_.idle() ? "idle" : "BUSY") << '\n';
  gpe_.dump_state(os);
  dnq_.dump_state(os);
  dna_.dump_state(os);
  agg_.dump_state(os);
}

void Tile::tick() {
  gpe_.catch_up(net_.now());
  // Dispatch DNQ/DNA endpoint traffic (weight fills vs entry fills).
  while (auto msg = net_.poll(ep_dnq_)) {
    if (msg->kind == noc::MsgKind::kMemReadResp &&
        (msg->c & kWeightTag) != 0) {
      dna_.on_weight_data(msg->b);
    } else {
      dnq_.on_message(*msg);
    }
  }
  agg_.tick();
  dna_.tick();
  gpe_.tick(net_.now());
}

Cycle Tile::next_event(Cycle now) const {
  const Cycle gpe = gpe_.spinning() ? kNeverCycle : gpe_.next_event(now);
  if (gpe <= now) return now;
  return std::min({gpe, agg_.next_event(now), dna_.next_event(now)});
}

}  // namespace gnna::accel
