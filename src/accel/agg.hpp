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
//
// Value support: entries optionally carry Fixed32 vectors so unit tests can
// assert bit-exact order-independence of the associative reductions; the
// full-system simulator sends value-free (timing-only) contributions.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "accel/addrmap.hpp"
#include "accel/config.hpp"
#include "common/fixed_point.hpp"
#include "common/stats.hpp"
#include "noc/network.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

using AggHandle = std::uint32_t;

struct AggStats {
  Counter allocations;
  Counter alloc_failures;
  Counter contributions;  // messages reduced
  Counter completions;
  Counter words_reduced;
  double busy_cycles = 0.0;  // NoC cycles the ALU bank was busy
};

class Agg {
 public:
  /// `core_scale` = noc_clock / core_clock (>= 1 when the core is slower).
  Agg(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
      const AddressMap& addr_map, double core_scale);

  /// Allocation-bus interface (same-tile GPE). `expected_words` is the
  /// total number of 4B elements that will arrive before the aggregation
  /// completes (the per-aggregation count of Fig 7). `owner` is the work
  /// item the aggregation computes (attribution only). Returns nullopt
  /// when the data or control scratchpad is full.
  [[nodiscard]] std::optional<AggHandle> allocate(
      std::uint32_t width_words, std::uint64_t expected_words, ReduceOp op,
      Dest dest, std::uint32_t owner = noc::kNoOwner);

  /// NoC delivery (kMemReadResp / kAggWrite with a = handle).
  void on_message(const noc::Message& msg);

  /// Value-accurate contribution used by unit tests (same accounting as a
  /// message of values.size() words).
  void contribute_values(AggHandle h, std::span<const Fixed32> values);

  /// Current (partial or final) values of an entry; empty in timing-only
  /// mode. Valid until the entry completes.
  [[nodiscard]] std::span<const Fixed32> entry_values(AggHandle h) const;

  [[nodiscard]] bool entry_active(AggHandle h) const {
    return h < entries_.size() && entries_[h].active;
  }

  void tick();

  /// Earliest NoC cycle >= `now` at which tick() could change state: the
  /// ALU bank freeing up while contributions wait in the inbox.
  /// kNeverCycle when only a NoC delivery can wake it.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] bool idle() const {
    return inbox_.empty() && live_entries_ == 0;
  }
  [[nodiscard]] std::uint32_t live_entries() const { return live_entries_; }
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
    std::vector<Fixed32> values;  // width_words, identity-initialized
  };

  void complete(AggHandle h);

  TileParams params_;
  noc::MeshNetwork& net_;
  EndpointId endpoint_;
  const AddressMap& addr_map_;
  double scale_;

  std::vector<Entry> entries_;
  std::vector<AggHandle> free_list_;
  std::uint32_t live_entries_ = 0;
  std::uint64_t data_bytes_used_ = 0;

  std::deque<noc::Message> inbox_;  // internal flit-buffer stand-in
  double alu_free_at_ = 0.0;
  AggStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::accel
