// The Aggregator (AGG) module — Fig 7.
//
// "The AGG is responsible for performing the aggregation steps in a GNN
//  model, and manages a pool of in-progress aggregations. The AGG only
//  supports aggregation operations that are associative, which allows data
//  to be aggregated in any order. It contains a pair of scratchpads for
//  control (2kB) and data storage (62kB), a bank of 16 32-bit ALUs..."
//
// Timing model: incoming messages are reduced into the entry at 16 words
// (one flit) per core cycle; entry allocation costs one cycle over the
// allocation bus (charged on the GPE side); a completed aggregation's
// result is sent to its configured destination through the NoC injection
// queue (the 2kB flit buffer, drained one flit per cycle by the network).
// Entries carry word counts only, no data values: the AGG is timed, not
// computed.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "accel/addrmap.hpp"
#include "accel/config.hpp"
#include "common/reduce_op.hpp"
#include "common/stats.hpp"
#include "noc/network.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

using AggHandle = std::uint32_t;

struct AggStats {
  Counter contributions;  // messages reduced
  Counter words_reduced;
  std::uint64_t busy_time = 0;  // time the ALU bank was busy (ClockRatio)
};

class Agg {
 public:
  /// `ratio` = noc_clock / core_clock, the unit of the AGG's time.
  Agg(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
      const AddressMap& addr_map, ClockRatio ratio);

  /// Allocation-bus interface (same-tile GPE). `expected_words` is the
  /// total number of 4B elements that will arrive before the aggregation
  /// completes (the per-aggregation count of Fig 7). `owner` is the work
  /// item the aggregation computes (attribution only). Returns nullopt
  /// when the data or control scratchpad is full.
  [[nodiscard]] std::optional<AggHandle> allocate(
      std::uint32_t width_words, std::uint64_t expected_words, ReduceOp op,
      Dest dest, std::uint32_t owner = noc::kNoOwner);

  [[nodiscard]] bool entry_active(AggHandle h) const {
    return h < entries_.size() && entries_[h].active;
  }

  /// Drains the NoC deliveries (kMemReadResp tagged c = handle, kAggWrite
  /// with a = handle) and reduces them as the ALU bank frees up.
  void tick();

  /// Earliest NoC cycle >= `now` at which tick() could change state: the
  /// ALU bank freeing up while contributions wait in the inbox.
  /// kNeverCycle when only a NoC delivery can wake it.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] bool idle() const {
    return inbox_.empty() && live_entries_ == 0;
  }
  [[nodiscard]] std::uint32_t live_entries() const { return live_entries_; }
  /// Entries freed so far. allocate() fails only on live entries and
  /// bytes used, which only a completion lowers, so a refused allocation
  /// is refused again until this count moves.
  [[nodiscard]] std::uint64_t frees() const { return frees_; }
  [[nodiscard]] const AggStats& stats() const { return stats_; }

  /// Attach an event tracer (reductions, completions). Disabled by default.
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Deadlock diagnostics: live entries with remaining-element counters.
  void dump_state(std::ostream& os) const;

 private:
  struct Entry {
    bool active = false;
    std::uint32_t width_words = 0;
    std::uint64_t expected_words = 0;
    std::uint64_t received_words = 0;
    std::uint32_t owner = noc::kNoOwner;  // attribution only
    ReduceOp op = ReduceOp::kSum;
    Dest dest;
  };

  void complete(AggHandle h);

  TileParams params_;
  noc::MeshNetwork& net_;
  EndpointId endpoint_;
  const AddressMap& addr_map_;
  ClockRatio ratio_;

  std::vector<Entry> entries_;
  std::vector<AggHandle> free_list_;
  std::uint32_t live_entries_ = 0;
  std::uint64_t data_bytes_used_ = 0;
  std::uint64_t frees_ = 0;

  std::deque<noc::Message> inbox_;  // internal flit-buffer stand-in
  std::uint64_t alu_free_at_ = 0;
  AggStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::accel
