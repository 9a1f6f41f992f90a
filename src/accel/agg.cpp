#include "accel/agg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace gnna::accel {

Agg::Agg(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
         const AddressMap& addr_map, double core_scale)
    : params_(params),
      net_(net),
      endpoint_(endpoint),
      addr_map_(addr_map),
      scale_(core_scale) {}

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
  if ((dest.kind == Dest::Kind::kDnqEntry ||
       dest.kind == Dest::Kind::kAggEntry) &&
      dest.ep == kInvalidEndpoint) {
    throw std::invalid_argument(
        "Agg::allocate: unit destination with invalid endpoint");
  }
  const std::uint64_t bytes = std::uint64_t{width_words} * kWordBytes;
  const std::uint32_t max_entries =
      params_.agg_ctrl_bytes / params_.agg_ctrl_entry_bytes;
  if (live_entries_ >= max_entries ||
      data_bytes_used_ + bytes > params_.agg_data_bytes) {
    stats_.alloc_failures.add();
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
  e.values.assign(width_words, reduce_identity(op));

  ++live_entries_;
  data_bytes_used_ += bytes;
  stats_.allocations.add();

  // Degenerate aggregation over an empty neighborhood: complete at once
  // (the identity vector is the result).
  if (expected_words == 0) complete(h);
  return h;
}

void Agg::on_message(const noc::Message& msg) {
  inbox_.push_back(msg);
}

void Agg::contribute_values(AggHandle h, std::span<const Fixed32> values) {
  assert(entry_active(h));
  Entry& e = entries_[h];
  assert(values.size() % e.width_words == 0 &&
         "contribution must be whole vectors");
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t lane = i % e.width_words;
    e.values[lane] = apply_reduce(e.op, e.values[lane], values[i]);
  }
  e.received_words += values.size();
  stats_.contributions.add();
  stats_.words_reduced.add(values.size());
  if (e.received_words >= e.expected_words) complete(h);
}

std::span<const Fixed32> Agg::entry_values(AggHandle h) const {
  assert(entry_active(h));
  return entries_[h].values;
}

void Agg::complete(AggHandle h) {
  Entry& e = entries_[h];
  assert(e.active);
  const std::uint32_t bytes = e.width_words * kWordBytes;
  switch (e.dest.kind) {
    case Dest::Kind::kNone:
      break;
    case Dest::Kind::kMemWrite:
      addr_map_.for_each_segment(
          e.dest.addr, bytes,
          [&](EndpointId mem_ep, Addr addr, std::uint64_t seg_bytes) {
            noc::Message m;
            m.src = endpoint_;
            m.dst = mem_ep;
            m.kind = noc::MsgKind::kMemWriteReq;
            m.payload_bytes = static_cast<std::uint32_t>(seg_bytes);
            m.owner = e.owner;
            m.a = addr;
            m.b = seg_bytes;
            net_.send(m);
          });
      break;
    case Dest::Kind::kDnqEntry: {
      noc::Message m;
      m.src = endpoint_;
      m.dst = e.dest.ep;
      m.kind = noc::MsgKind::kDnqWrite;
      m.payload_bytes = bytes;
      m.owner = e.owner;
      m.a = e.dest.handle;
      net_.send(m);
      break;
    }
    case Dest::Kind::kAggEntry: {
      noc::Message m;
      m.src = endpoint_;
      m.dst = e.dest.ep;
      m.kind = noc::MsgKind::kAggWrite;
      m.payload_bytes = bytes;
      m.owner = e.owner;
      m.a = e.dest.handle;
      net_.send(m);
      break;
    }
  }
  stats_.completions.add();
  tracer_.instant("complete", h, e.expected_words);
  e.active = false;
  e.values.clear();
  data_bytes_used_ -= std::uint64_t{e.width_words} * kWordBytes;
  --live_entries_;
  free_list_.push_back(h);
}

namespace {

const char* reduce_op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMean: return "mean";
  }
  return "?";
}

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
     << "B alu_free_at=" << alu_free_at_
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
  return std::max(now, static_cast<Cycle>(std::ceil(alu_free_at_)));
}

void Agg::tick() {
  const auto now = static_cast<double>(net_.now());
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
                   "AGG: dead contribution handle=%u kind=%d payload=%u "
                   "src=%u live=%u\n",
                   h, static_cast<int>(msg.kind), msg.payload_bytes, msg.src,
                   live_entries_);
    }
#endif
    assert(entry_active(h) && "contribution to dead aggregation");
    Entry& e = entries_[h];
    const std::uint64_t words = msg.payload_bytes / kWordBytes;
    const double cycles =
        static_cast<double>((words + params_.agg_alus - 1) / params_.agg_alus);
    const double start = std::max(alu_free_at_, now);
    alu_free_at_ = start + cycles * scale_;
    stats_.busy_cycles += cycles * scale_;
    stats_.contributions.add();
    stats_.words_reduced.add(words);
    if (tracer_.enabled()) {
      tracer_.complete("reduce", start, cycles * scale_, h, words);
      // Attribution: the entry's owner paid for this ALU occupancy.
      tracer_.charge(e.owner, cycles * scale_);
    }
    e.received_words += words;
    if (e.received_words >= e.expected_words) complete(h);
  }
}

}  // namespace gnna::accel
