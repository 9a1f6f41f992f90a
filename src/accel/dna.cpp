#include "accel/dna.hpp"

#include <algorithm>
#include <cassert>

namespace gnna::accel {

DnaModelTiming dna_model_timing(
    const std::vector<dataflow::MatmulShape>& shapes, std::uint32_t out_words,
    const TileParams& tp, Frequency core_clock) {
  DnaModelTiming m;
  m.out_words = out_words;
  for (const auto& s : shapes) {
    if (s.m == 0 || s.k == 0 || s.n == 0) return m;
  }
  const dataflow::Mapper mapper(tp.dna);
  for (const auto& s : shapes) {
    m.ii_core_cycles += mapper.map(s, std::nullopt, core_clock).compute_cycles;
    m.macs_per_entry += s.total_macs();
  }
  return m;
}

std::uint64_t dna_entry_ii(const DnaModelTiming& model,
                           std::uint32_t width_words, const TileParams& tp) {
  const std::uint64_t readout = (std::uint64_t{width_words} + 15) / 16;
  return std::max({model.ii_core_cycles, readout,
                   std::uint64_t{tp.dna_min_ii}});
}

Dna::Dna(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
         const AddressMap& addr_map, ClockRatio ratio, Dnq& dnq)
    : params_(params),
      net_(net),
      endpoint_(endpoint),
      addr_map_(addr_map),
      ratio_(ratio),
      dnq_(dnq) {}

void Dna::configure(std::vector<DnaModelTiming> models,
                    std::uint64_t weight_bytes) {
  assert(idle() && "reconfiguring a busy DNA");
  models_ = std::move(models);
  weights_pending_ = weight_bytes;
  array_free_at_ = 0;
  idle_since_ = ratio_.at(net_.now());
  busy_ = false;
}

void Dna::on_weight_data(std::uint64_t bytes) {
  weights_pending_ = bytes >= weights_pending_ ? 0 : weights_pending_ - bytes;
}

void Dna::dump_state(std::ostream& os) const {
  os << "    dna: " << (busy_ ? "BUSY" : "idle")
     << " array_free_at=" << ratio_.format(array_free_at_)
     << " weights_pending=" << weights_pending_
     << "B pending_results=" << results_.size();
  if (!results_.empty()) {
    os << " next_result_at=" << ratio_.format(results_.front().ready_at);
  }
  os << '\n';
}

Cycle Dna::next_event(Cycle now) const {
  Cycle t = kNeverCycle;
  if (!results_.empty()) {
    t = ratio_.ceil_cycle(results_.front().ready_at);
  }
  if (busy_) {
    return std::max(now, std::min(t, ratio_.ceil_cycle(array_free_at_)));
  }
  if (weights_pending_ == 0) {
    const std::uint8_t active = dnq_.active_queue();
    if (dnq_.head_ready(active)) return now;
    if (dnq_.head_ready(active == 0 ? 1 : 0)) {
      // The first cycle at which tick() finds the DNA idle for the
      // switch threshold.
      t = std::min(t, ratio_.ceil_cycle(
                          idle_since_ +
                          ratio_.core(params_.dnq_idle_switch_cycles)));
    }
  }
  return t == kNeverCycle ? t : std::max(t, now);
}

void Dna::tick() {
  const std::uint64_t now = ratio_.at(net_.now());

  // Emit finished results (pipeline output port + flit buffer).
  while (!results_.empty() && results_.front().ready_at <= now) {
    const PendingResult& r = results_.front();
    send_result(net_, addr_map_, endpoint_, r.dest, r.out_words * kWordBytes,
                r.owner);
    results_.pop_front();
  }

  if (busy_ && array_free_at_ <= now) {
    busy_ = false;
    idle_since_ = array_free_at_;
  }

  if (busy_ || weights_pending_ != 0) return;

  // Ask the DNQ for work (single dequeue interface, lazy switching).
  auto entry = dnq_.try_dequeue(
      now - idle_since_ >= ratio_.core(params_.dnq_idle_switch_cycles));
  if (!entry.has_value()) return;

  assert(entry->queue < models_.size() && "DNQ entry for unconfigured model");
  const DnaModelTiming& model = models_[entry->queue];

  const std::uint64_t ii =
      ratio_.core(dna_entry_ii(model, entry->width_words, params_));
  const std::uint64_t start = std::max(array_free_at_, now);
  array_free_at_ = start + ii;
  busy_ = true;
  stats_.busy_time += ii;
  stats_.entries_processed.add();
  stats_.macs.add(model.macs_per_entry);
  if (tracer_.enabled()) {
    tracer_.complete("entry", ratio_.cycles(start), ratio_.cycles(ii),
                     entry->queue, entry->width_words);
  }

  PendingResult r;
  r.ready_at = array_free_at_ + ratio_.core(params_.dna_pipeline_latency);
  r.out_words = model.out_words;
  r.owner = entry->owner;
  r.dest = entry->dest;
  results_.push_back(r);
}

}  // namespace gnna::accel
