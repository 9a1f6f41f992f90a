#include "accel/agg.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace gnna::accel {

Agg::Agg(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
         const AddressMap& addr_map, ClockRatio ratio)
    : params_(params),
      net_(net),
      endpoint_(endpoint),
      addr_map_(addr_map),
      ratio_(ratio) {}

std::optional<AggHandle> Agg::allocate(std::uint32_t width_words,
                                       std::uint64_t expected_words,
                                       ReduceOp op, Dest dest,
                                       std::uint32_t owner) {
  // Malformed requests are program bugs, not transient resource pressure:
  // report them explicitly instead of returning nullopt (which the GPE
  // treats as "retry next cycle" — an infinite retry loop for these).
  if (width_words == 0) {
    throw std::invalid_argument(
        "Agg::allocate: zero-width aggregation entry");
  }
  if (!is_associative(op)) {
    throw std::invalid_argument(
        "Agg::allocate: non-associative reduce op (the AGG only supports "
        "associative aggregation)");
  }
  dest.check_endpoint("Agg::allocate");
  const std::uint64_t bytes = std::uint64_t{width_words} * kWordBytes;
  const std::uint32_t max_entries =
      params_.agg_ctrl_bytes / params_.agg_ctrl_entry_bytes;
  if (live_entries_ >= max_entries ||
      data_bytes_used_ + bytes > params_.agg_data_bytes) {
    return std::nullopt;
  }

  AggHandle h;
  if (!free_list_.empty()) {
    h = free_list_.back();
    free_list_.pop_back();
  } else {
    h = static_cast<AggHandle>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[h];
  e.active = true;
  e.width_words = width_words;
  e.expected_words = expected_words;
  e.received_words = 0;
  e.owner = owner;
  e.op = op;
  e.dest = dest;

  ++live_entries_;
  data_bytes_used_ += bytes;

  // Degenerate aggregation over an empty neighborhood: complete at once
  // (the result is the op's identity).
  if (expected_words == 0) complete(h);
  return h;
}

void Agg::complete(AggHandle h) {
  Entry& e = entries_[h];
  assert(e.active);
  send_result(net_, addr_map_, endpoint_, e.dest, e.width_words * kWordBytes,
              e.owner);
  tracer_.instant("complete", h, e.expected_words);
  e.active = false;
  data_bytes_used_ -= std::uint64_t{e.width_words} * kWordBytes;
  --live_entries_;
  ++frees_;
  free_list_.push_back(h);
}

namespace {

/// "-> dnq ep=7 handle=3" — names the resource a stalled entry's result is
/// destined for, so a deadlock dump reads as a wait-for chain.
void print_dest(std::ostream& os, const Dest& d) {
  switch (d.kind) {
    case Dest::Kind::kNone: os << "-> none"; break;
    case Dest::Kind::kMemWrite: os << "-> mem addr=0x" << std::hex << d.addr
                                   << std::dec; break;
    case Dest::Kind::kDnqEntry: os << "-> dnq ep=" << d.ep
                                   << " handle=" << d.handle; break;
    case Dest::Kind::kAggEntry: os << "-> agg ep=" << d.ep
                                   << " handle=" << d.handle; break;
  }
}

}  // namespace

void Agg::dump_state(std::ostream& os) const {
  std::uint64_t remaining_total = 0;
  for (const Entry& e : entries_) {
    if (e.active) remaining_total += e.expected_words - e.received_words;
  }
  os << "    agg: live_entries=" << live_entries_ << " inbox="
     << inbox_.size() << " data_used=" << data_bytes_used_
     << "B alu_free_at=" << ratio_.format(alu_free_at_)
     << " remaining_words_total=" << remaining_total << '\n';
  std::size_t shown = 0;
  for (AggHandle h = 0; h < entries_.size(); ++h) {
    const Entry& e = entries_[h];
    if (!e.active) continue;
    if (shown == 8) {
      os << "      ... " << live_entries_ - shown << " more live entries\n";
      break;
    }
    ++shown;
    os << "      entry " << h << ": received=" << e.received_words << '/'
       << e.expected_words << " words (width=" << e.width_words
       << ", remaining=" << e.expected_words - e.received_words << ", op="
       << reduce_op_name(e.op) << ") ";
    print_dest(os, e.dest);
    os << '\n';
  }
}

Cycle Agg::next_event(Cycle now) const {
  if (inbox_.empty()) return kNeverCycle;
  return std::max(now, ratio_.ceil_cycle(alu_free_at_));
}

void Agg::tick() {
  const std::uint64_t now = ratio_.at(net_.now());
  // Drain NoC deliveries into the internal buffer.
  while (auto msg = net_.poll(endpoint_)) inbox_.push_back(*msg);

  // Reduce one message's worth of data per ALU-bank availability window.
  while (!inbox_.empty() && alu_free_at_ <= now) {
    const noc::Message msg = inbox_.front();
    inbox_.pop_front();
    // Memory responses carry the entry handle in the echoed tag (c); unit
    // results (kAggWrite) carry it in a.
    const auto h = static_cast<AggHandle>(
        msg.kind == noc::MsgKind::kMemReadResp ? msg.c : msg.a);
#ifndef NDEBUG
    if (!entry_active(h)) {
      std::fprintf(stderr,
                   "AGG: dead contribution handle=%u kind=%s payload=%u "
                   "src=%u live=%u\n",
                   h, noc::msg_kind_name(msg.kind), msg.payload_bytes,
                   msg.src, live_entries_);
    }
#endif
    assert(entry_active(h) && "contribution to dead aggregation");
    Entry& e = entries_[h];
    const std::uint64_t words = msg.payload_bytes / kWordBytes;
    const std::uint64_t busy =
        ratio_.core((words + params_.agg_alus - 1) / params_.agg_alus);
    const std::uint64_t start = std::max(alu_free_at_, now);
    alu_free_at_ = start + busy;
    stats_.busy_time += busy;
    stats_.contributions.add();
    stats_.words_reduced.add(words);
    if (tracer_.enabled()) {
      tracer_.complete("reduce", ratio_.cycles(start), ratio_.cycles(busy), h,
                       words);
      // Attribution: the entry's owner paid for this ALU occupancy.
      tracer_.charge(e.owner, ratio_.cycles(busy));
    }
    e.received_words += words;
    if (e.received_words >= e.expected_words) complete(h);
  }
}

}  // namespace gnna::accel
