// The DNN Queue (DNQ) — Fig 6.
//
// "The DNQ is responsible for staging inputs to the spatial architecture
//  accelerator and providing support for multiple simultaneous DNN models.
//  The queue supports delayed enqueues, which allow queue space to be
//  allocated before data is written. ... The control logic maintains two
//  sets of head and tail pointers, allowing it to manage two virtual
//  queues. ... Due to the single dequeue interface, only one queue may
//  dequeue at a time. A lazy queue switching algorithm is used, whereby the
//  queue eligible for dequeue is only switched when the DNA has been idle
//  for 16 cycles."
//
// Entries are allocated (delayed enqueue) with a destination for the
// eventual DNA result; data arrives as NoC messages carrying the entry
// handle; ready is tracked per 4B word (we count received words); dequeue
// is FIFO per virtual queue and only when the head entry is fully ready.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "accel/addrmap.hpp"
#include "accel/config.hpp"
#include "common/stats.hpp"
#include "noc/message.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

using DnqHandle = std::uint32_t;

struct DnqStats {
  Counter enqueued_words;
  Counter queue_switches;
};

/// A dequeued entry handed to the DNA.
struct DnqEntry {
  std::uint8_t queue = 0;
  std::uint32_t width_words = 0;
  std::uint32_t owner = noc::kNoOwner;  // attribution only
  Dest dest;
};

class Dnq {
 public:
  explicit Dnq(const TileParams& params);

  /// Bytes of the data scratchpad given to virtual queue 0 by the default
  /// `dnq_queue0_sixteenths` split; the remainder goes to queue 1 so every
  /// byte of `dnq_data_bytes` is accounted for.
  [[nodiscard]] static std::uint32_t queue0_split_bytes(
      const TileParams& params);

  /// Reconfigure the virtual-queue split (allocation bus, per phase).
  /// Frees nothing: must only be called when the queue is empty.
  void configure(std::uint32_t queue0_bytes, std::uint32_t queue1_bytes);

  /// Delayed enqueue: reserve space in virtual queue `queue` for an entry
  /// of `width_words`, recording the result destination. `owner` is the
  /// work item the entry computes (attribution only). nullopt when the
  /// data or destination scratchpad is full.
  [[nodiscard]] std::optional<DnqHandle> allocate(
      std::uint8_t queue, std::uint32_t width_words, Dest dest,
      std::uint32_t owner = noc::kNoOwner);

  /// Data arrival (kMemReadResp / kDnqWrite with a = handle).
  void on_message(const noc::Message& msg);

  /// DNA-side single dequeue interface with lazy switching: the head
  /// entry of the active queue if it is fully ready, else, when
  /// `may_switch` (the DNA has sat idle for the switch threshold), the
  /// other queue's ready head, which makes that queue the active one.
  [[nodiscard]] std::optional<DnqEntry> try_dequeue(bool may_switch);

  /// True when virtual queue `q`'s head entry has all of its data.
  [[nodiscard]] bool head_ready(std::uint8_t q) const;

  [[nodiscard]] bool empty() const { return live_entries_ == 0; }
  /// Entries freed so far. allocate() fails only on live entries and
  /// bytes used, which only a free lowers, so a refused allocation is
  /// refused again until this count moves.
  [[nodiscard]] std::uint64_t frees() const { return frees_; }
  [[nodiscard]] std::uint32_t live_entries() const { return live_entries_; }
  [[nodiscard]] std::uint8_t active_queue() const { return active_queue_; }
  [[nodiscard]] std::uint32_t queue_capacity_bytes(std::uint8_t q) const {
    return capacity_bytes_[q];
  }
  [[nodiscard]] std::uint64_t queue_used_bytes(std::uint8_t q) const {
    return bytes_used_[q];
  }
  [[nodiscard]] const DnqStats& stats() const { return stats_; }

  /// Attach an event tracer (allocations, dequeues, queue switches).
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Deadlock diagnostics: per-queue occupancy and head-entry fill state.
  void dump_state(std::ostream& os) const;

 private:
  struct Entry {
    bool active = false;
    std::uint8_t queue = 0;
    std::uint32_t width_words = 0;
    std::uint32_t owner = noc::kNoOwner;  // attribution only
    std::uint64_t received_bytes = 0;
    Dest dest;

    [[nodiscard]] bool ready() const {
      return received_bytes >= std::uint64_t{width_words} * 4;
    }
  };

  DnqEntry pop_head(std::uint8_t q);

  TileParams params_;
  std::array<std::uint32_t, 2> capacity_bytes_{};
  std::array<std::uint64_t, 2> bytes_used_{};
  std::array<std::deque<DnqHandle>, 2> fifo_;
  std::vector<Entry> entries_;
  std::vector<DnqHandle> free_list_;
  std::uint32_t live_entries_ = 0;
  std::uint64_t frees_ = 0;
  std::uint8_t active_queue_ = 0;
  DnqStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::accel
