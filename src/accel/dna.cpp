#include "accel/dna.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gnna::accel {

Dna::Dna(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
         const AddressMap& addr_map, double core_scale)
    : params_(params),
      net_(net),
      endpoint_(endpoint),
      addr_map_(addr_map),
      scale_(core_scale) {}

void Dna::configure(std::vector<DnaModelTiming> models,
                    std::uint64_t weight_bytes) {
  assert(idle() && "reconfiguring a busy DNA");
  models_ = std::move(models);
  weights_pending_ = weight_bytes;
  array_free_at_ = 0.0;
  idle_since_ = static_cast<double>(net_.now());
  busy_ = false;
}

void Dna::on_weight_data(std::uint64_t bytes) {
  weights_pending_ = bytes >= weights_pending_ ? 0 : weights_pending_ - bytes;
}

void Dna::emit(const PendingResult& r) {
  const std::uint32_t bytes = r.out_words * kWordBytes;
  switch (r.dest.kind) {
    case Dest::Kind::kNone:
      break;
    case Dest::Kind::kMemWrite:
      addr_map_.for_each_segment(
          r.dest.addr, bytes,
          [&](EndpointId mem_ep, Addr addr, std::uint64_t seg_bytes) {
            noc::Message m;
            m.src = endpoint_;
            m.dst = mem_ep;
            m.kind = noc::MsgKind::kMemWriteReq;
            m.payload_bytes = static_cast<std::uint32_t>(seg_bytes);
            m.owner = r.owner;
            m.a = addr;
            m.b = seg_bytes;
            net_.send(m);
          });
      break;
    case Dest::Kind::kDnqEntry: {
      noc::Message m;
      m.src = endpoint_;
      m.dst = r.dest.ep;
      m.kind = noc::MsgKind::kDnqWrite;
      m.payload_bytes = bytes;
      m.owner = r.owner;
      m.a = r.dest.handle;
      net_.send(m);
      break;
    }
    case Dest::Kind::kAggEntry: {
      noc::Message m;
      m.src = endpoint_;
      m.dst = r.dest.ep;
      m.kind = noc::MsgKind::kAggWrite;
      m.payload_bytes = bytes;
      m.owner = r.owner;
      m.a = r.dest.handle;
      net_.send(m);
      break;
    }
  }
  stats_.results_sent.add();
}

void Dna::dump_state(std::ostream& os) const {
  os << "    dna: " << (busy_ ? "BUSY" : "idle")
     << " array_free_at=" << array_free_at_
     << " weights_pending=" << weights_pending_
     << "B pending_results=" << results_.size();
  if (!results_.empty()) {
    os << " next_result_at=" << results_.front().ready_at;
  }
  os << '\n';
}

Cycle Dna::next_event(Cycle now, const Dnq& dnq) const {
  Cycle t = kNeverCycle;
  if (!results_.empty()) {
    t = static_cast<Cycle>(std::ceil(results_.front().ready_at));
  }
  if (busy_) {
    return std::max(
        now, std::min(t, static_cast<Cycle>(std::ceil(array_free_at_))));
  }
  if (weights_pending_ == 0) {
    const std::uint8_t active = dnq.active_queue();
    if (dnq.head_ready(active)) return now;
    if (dnq.head_ready(active == 0 ? 1 : 0)) {
      // Rounded down: the idle-time test in try_dequeue divides by the
      // clock scale, so its first passing cycle may sit one below the
      // product here. Waking a cycle early is free; late would move it.
      const double switch_at =
          idle_since_ + params_.dnq_idle_switch_cycles * scale_;
      t = std::min(t, static_cast<Cycle>(std::floor(switch_at)));
    }
  }
  return t == kNeverCycle ? t : std::max(t, now);
}

void Dna::tick(Dnq& dnq) {
  const auto now = static_cast<double>(net_.now());

  // Emit finished results (pipeline output port + flit buffer).
  while (!results_.empty() && results_.front().ready_at <= now) {
    emit(results_.front());
    results_.pop_front();
  }

  if (busy_ && array_free_at_ <= now) {
    busy_ = false;
    idle_since_ = array_free_at_;
  }

  if (busy_ || weights_pending_ != 0) return;

  // Ask the DNQ for work (single dequeue interface, lazy switching).
  const double idle_core = (now - idle_since_) / scale_;
  auto entry = dnq.try_dequeue(idle_core);
  if (!entry.has_value()) return;

  assert(entry->queue < models_.size() && "DNQ entry for unconfigured model");
  const DnaModelTiming& model = models_[entry->queue];

  // Entry readout runs at one flit (16 words) per core cycle and is
  // overlapped with compute; the array is busy for the larger of the two.
  const double readout_core = (entry->width_words + 15) / 16;
  const double ii_core =
      std::max({model.ii_core_cycles, readout_core,
                static_cast<double>(params_.dna_min_ii)});
  const double start = std::max(array_free_at_, now);
  array_free_at_ = start + ii_core * scale_;
  busy_ = true;
  stats_.busy_cycles += ii_core * scale_;
  stats_.entries_processed.add();
  stats_.macs.add(model.macs_per_entry);
  if (tracer_.enabled()) {
    tracer_.complete("entry", start, ii_core * scale_, entry->queue,
                     entry->width_words);
  }

  PendingResult r;
  r.ready_at = array_free_at_ + params_.dna_pipeline_latency * scale_;
  r.out_words = model.out_words;
  r.owner = entry->owner;
  r.dest = entry->dest;
  results_.push_back(r);
}

}  // namespace gnna::accel
