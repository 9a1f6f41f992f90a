#include "accel/dnq.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace gnna::accel {

std::uint32_t Dnq::queue0_split_bytes(const TileParams& params) {
  if (params.dnq_queue0_sixteenths > 16) {
    throw std::invalid_argument(
        "Dnq: dnq_queue0_sixteenths out of range (" +
        std::to_string(params.dnq_queue0_sixteenths) + "/16)");
  }
  // Scale before dividing: `data / 16 * sixteenths` truncates the
  // per-sixteenth size first, so a sixteenths=16 split of a non-divisible
  // scratchpad would strand up to 15 bytes in queue 1.
  return static_cast<std::uint32_t>(std::uint64_t{params.dnq_data_bytes} *
                                    params.dnq_queue0_sixteenths / 16);
}

Dnq::Dnq(const TileParams& params) : params_(params) {
  const std::uint32_t q0 = queue0_split_bytes(params);
  const std::uint32_t q1 = params.dnq_data_bytes - q0;
  assert(q0 + q1 == params.dnq_data_bytes &&
         "DNQ split must account for every scratchpad byte");
  configure(q0, q1);
}

void Dnq::configure(std::uint32_t queue0_bytes, std::uint32_t queue1_bytes) {
  // Explicit errors (not asserts): a bad split is a program/config bug that
  // must surface in release builds too, before it turns into a deadlock.
  if (live_entries_ != 0) {
    throw std::logic_error("Dnq::configure: reconfiguring a non-empty DNQ");
  }
  if (std::uint64_t{queue0_bytes} + queue1_bytes > params_.dnq_data_bytes) {
    throw std::invalid_argument(
        "Dnq::configure: split " + std::to_string(queue0_bytes) + "+" +
        std::to_string(queue1_bytes) + "B exceeds the " +
        std::to_string(params_.dnq_data_bytes) + "B data scratchpad");
  }
  capacity_bytes_ = {queue0_bytes, queue1_bytes};
  active_queue_ = 0;
}

std::optional<DnqHandle> Dnq::allocate(std::uint8_t queue,
                                       std::uint32_t width_words, Dest dest,
                                       std::uint32_t owner) {
  if (queue >= 2) {
    throw std::invalid_argument("Dnq::allocate: virtual queue " +
                                std::to_string(queue) + " out of range");
  }
  if (width_words == 0) {
    throw std::invalid_argument("Dnq::allocate: zero-width entry");
  }
  dest.check_endpoint("Dnq::allocate");
  const std::uint64_t bytes = std::uint64_t{width_words} * 4;
  const std::uint32_t max_dest_entries =
      params_.dnq_dest_bytes / params_.dnq_dest_entry_bytes;
  if (live_entries_ >= max_dest_entries ||
      bytes_used_[queue] + bytes > capacity_bytes_[queue]) {
    return std::nullopt;
  }
  DnqHandle h;
  if (!free_list_.empty()) {
    h = free_list_.back();
    free_list_.pop_back();
  } else {
    h = static_cast<DnqHandle>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[h];
  e.active = true;
  e.queue = queue;
  e.width_words = width_words;
  e.owner = owner;
  e.received_bytes = 0;
  e.dest = dest;
  bytes_used_[queue] += bytes;
  fifo_[queue].push_back(h);
  ++live_entries_;
  tracer_.instant("alloc", h, queue);
  return h;
}

void Dnq::on_message(const noc::Message& msg) {
  // Memory responses carry the entry handle in the echoed tag (c); unit
  // fills (kDnqWrite) carry it in a.
  const auto h = static_cast<DnqHandle>(
      msg.kind == noc::MsgKind::kMemReadResp ? msg.c : msg.a);
  assert(h < entries_.size() && entries_[h].active &&
         "DNQ write to dead entry");
  Entry& e = entries_[h];
  e.received_bytes += msg.payload_bytes;
  stats_.enqueued_words.add(msg.payload_bytes / 4);
  assert(e.received_bytes <= std::uint64_t{e.width_words} * 4 &&
         "DNQ entry overfilled");
}

bool Dnq::head_ready(std::uint8_t q) const {
  if (fifo_[q].empty()) return false;
  return entries_[fifo_[q].front()].ready();
}

DnqEntry Dnq::pop_head(std::uint8_t q) {
  const DnqHandle h = fifo_[q].front();
  fifo_[q].pop_front();
  Entry& e = entries_[h];
  DnqEntry out;
  out.queue = q;
  out.width_words = e.width_words;
  out.owner = e.owner;
  out.dest = e.dest;
  bytes_used_[q] -= std::uint64_t{e.width_words} * 4;
  e.active = false;
  --live_entries_;
  ++frees_;
  free_list_.push_back(h);
  tracer_.instant("dequeue", h, q);
  return out;
}

void Dnq::dump_state(std::ostream& os) const {
  os << "    dnq: live_entries=" << live_entries_ << " active_queue="
     << static_cast<int>(active_queue_) << '\n';
  for (std::uint8_t q = 0; q < 2; ++q) {
    os << "      queue " << static_cast<int>(q) << ": used="
       << bytes_used_[q] << '/' << capacity_bytes_[q] << "B depth="
       << fifo_[q].size();
    if (!fifo_[q].empty()) {
      const Entry& e = entries_[fifo_[q].front()];
      os << " head{handle=" << fifo_[q].front() << " received="
         << e.received_bytes << '/' << std::uint64_t{e.width_words} * 4
         << "B" << (e.ready() ? " ready" : " WAITING") << '}';
    }
    os << '\n';
  }
}

std::optional<DnqEntry> Dnq::try_dequeue(bool may_switch) {
  if (head_ready(active_queue_)) return pop_head(active_queue_);
  // Lazy switch: only flip to the other queue after the DNA has sat idle
  // for the configured threshold, to limit switch churn.
  const std::uint8_t other = active_queue_ == 0 ? 1 : 0;
  if (may_switch && head_ready(other)) {
    active_queue_ = other;
    stats_.queue_switches.add();
    tracer_.instant("queue_switch", other);
    return pop_head(active_queue_);
  }
  return std::nullopt;
}

}  // namespace gnna::accel
