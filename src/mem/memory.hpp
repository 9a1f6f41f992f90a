// Off-chip memory controller: the paper's bandwidth-latency model.
//
// "For the memory controllers, we implement a simple bandwidth-latency
//  model that enqueues up to 32 requests and services them in order
//  according to the latency and bandwidth configuration. Each memory module
//  is capable of servicing 68GBps of read/write traffic... We assume a
//  memory access granularity of 64B, and requests which are not integer
//  multiples of 64B and properly aligned will result in wasted DRAM
//  bandwidth but not wasted interconnect bandwidth."  (Section V)
//
// The controller is attached to one NoC endpoint. Read requests
// (MsgKind::kMemReadReq, a=address, b=bytes, c=opaque tag) produce
// responses (kMemReadResp, same a/b/c) addressed back to the requester;
// write requests occupy a queue slot until the data bus finishes their
// transfer, then complete silently (no response message). Requests are
// admitted from the NoC inbox only while fewer than `queue_entries` are in
// service, so a full queue backpressures naturally — reads behind queued
// writes stall exactly as the paper's in-order queue implies.
//
// Two schedulers share that admission/backpressure contract:
//
//  - kInOrder (default): the paper's model verbatim. One data bus; requests
//    are scheduled at admission time by chaining fractional-cycle bus
//    reservations, and retire strictly FIFO.
//  - kFrFcfs: a banked, reordering controller (DESIGN.md §11). Addresses
//    interleave across `banks` at `bank_interleave_bytes` stride; each bank
//    keeps one open row of `row_bytes`. A request window of
//    `window_entries` is scheduled first-ready-FCFS: ready row-hits issue
//    before older row-misses (at `row_hit_ns` vs `row_miss_ns`), except
//    that a request bypassed `starvation_cap` times is served next
//    regardless. Responses may return out of request order; consumers
//    match on the opaque tag `c`, never on FIFO position. With one bank
//    and row_hit_ns == row_miss_ns the scheduler degenerates to FCFS and
//    reproduces the in-order model's timing bit-identically.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "noc/network.hpp"
#include "trace/trace.hpp"

namespace gnna::mem {

/// Request scheduling policy.
enum class MemScheduler : std::uint8_t {
  kInOrder = 0,  // the paper's 32-entry in-order bandwidth-latency queue
  kFrFcfs,       // banked open-row first-ready-FCFS controller
};

[[nodiscard]] constexpr const char* mem_scheduler_name(MemScheduler s) {
  return s == MemScheduler::kFrFcfs ? "frfcfs" : "in_order";
}

/// Parse "in_order" | "frfcfs" (hyphen/underscore insensitive).
[[nodiscard]] std::optional<MemScheduler> mem_scheduler_by_name(
    std::string_view name);

/// Largest request payload a response message can carry
/// (noc::Message::payload_bytes is 32 bits). Oversized requests are
/// rejected at admission with a diagnostic instead of being silently
/// truncated into tiny response packets.
inline constexpr std::uint64_t kMaxRequestBytes = 0xFFFFFFFFULL;

struct MemParams {
  Bandwidth bandwidth = Bandwidth::gb_per_s(68.0);
  double latency_ns = 20.0;  // fixed access latency (Section VI-A, in-order)
  std::uint32_t queue_entries = 32;
  static constexpr std::uint32_t access_granularity = 64;  // bytes

  // --- FR-FCFS controller (used only when scheduler == kFrFcfs) ---
  MemScheduler scheduler = MemScheduler::kInOrder;
  std::uint32_t banks = 8;            // DRAM banks with open-row state
  std::uint32_t row_bytes = 2048;     // open-row (page) size per bank
  double row_hit_ns = 10.0;           // access latency when the row is open
  double row_miss_ns = 30.0;          // precharge + activate + access
  std::uint32_t window_entries = 16;  // scheduling window (replaces
                                      // queue_entries for admission)
  std::uint32_t starvation_cap = 16;  // max bypasses before forced service
  std::uint32_t bank_interleave_bytes = 64;  // address-to-bank stride
  // Bank-interleaved XOR address mapping: permute the bank index with the
  // row index (bank ^= row mod banks) so strided access patterns that
  // would camp on one bank under plain modulo interleaving spread across
  // all banks. Row selection is unchanged — only the bank permutation
  // within each row stripe differs.
  bool bank_xor = false;
};

/// Throws std::invalid_argument if the configuration is unusable (zero
/// banks/window, interleave not dividing the row size, ...).
void validate(const MemParams& p);

/// Per-bank accounting (FR-FCFS scheduler only).
struct BankStats {
  Counter row_hits;
  Counter row_misses;
  // Cycles the bank was active (clamped to non-overlapping intervals, so
  // busy_cycles / elapsed is a true utilization).
  double busy_cycles = 0.0;
};

struct MemStats {
  Counter bytes_requested;  // payload bytes the components asked for
  Counter bytes_served;     // bytes the DRAM actually moved (64B granules)
  /// Queue/window occupancy over time. Each sample is weighted by the
  /// number of cycles the queue sat at that depth, so mean() is the
  /// time-weighted average occupancy (not an average over depth *changes*,
  /// which would overstate churny depths). max() is exact: every depth the
  /// queue ever reached is recorded, the final one with zero weight.
  Accumulator queue_depth;
  std::vector<BankStats> banks;  // sized `banks` under FR-FCFS, else empty
};

class MemoryController {
 public:
  /// `clk` is the simulation (NoC) clock, used to convert the bandwidth and
  /// latency configuration into cycles. Throws std::invalid_argument on an
  /// unusable configuration (see validate()).
  MemoryController(noc::MeshNetwork& net, EndpointId endpoint, MemParams params,
                   Frequency clk);

  void tick();

  /// Earliest NoC cycle >= `now` at which tick() can change state, by the
  /// comparisons tick() makes (DESIGN.md §17): `now` while a request
  /// waits in the NoC and a slot is free; else, in-order, the cycle the
  /// head retires; FR-FCFS, the earliest of the cycles an issued request
  /// retires and, while one waits unissued, the first cycle c with
  /// dram_free_at_ <= c + 1. kNeverCycle when only a NoC delivery can
  /// wake it.
  [[nodiscard]] Cycle next_event(Cycle now) const {
    if (has_free_slot() && net_.delivery_queue_depth(endpoint_) != 0) {
      return now;
    }
    if (queue_.empty()) return kNeverCycle;
    if (!frfcfs_) return first_cycle_from(now, queue_.front().respond_at);
    // dram_free_at_ <= c + 1 iff dram_free_at_ - 1 <= c: the subtraction
    // is exact on bus times in [1, 2^53), and one below 1 gives `now`.
    double t = std::numeric_limits<double>::infinity();
    for (const InFlight& f : queue_) {
      t = std::min(t, f.issued ? f.respond_at : dram_free_at_ - 1.0);
    }
    return first_cycle_from(now, t);
  }

  [[nodiscard]] bool idle() const {
    return queue_.empty() && net_.delivery_queue_depth(endpoint_) == 0;
  }

  [[nodiscard]] const MemParams& params() const { return params_; }
  [[nodiscard]] const MemStats& stats() const { return stats_; }

  /// Row-hit accounting summed over banks (zero under the in-order model).
  [[nodiscard]] std::uint64_t row_hits() const;
  [[nodiscard]] std::uint64_t row_misses() const;
  /// Fraction of accesses that hit an open row, in [0,1]; 0 when no
  /// accesses were issued.
  [[nodiscard]] double row_hit_rate() const;

  /// Requests currently occupying queue/window slots.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// True while the queue (in-order) or window (FR-FCFS) can admit a
  /// request. O(1).
  [[nodiscard]] bool has_free_slot() const {
    return queue_.size() < capacity();
  }

  /// Attach an event tracer (request admissions, DRAM bus occupancy,
  /// responses; under FR-FCFS also row_hit/row_miss instants and
  /// window-occupancy / row-hit-rate counter tracks). Disabled by default.
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Deadlock diagnostics: queue contents, bank state, and inbox depth.
  void dump_state(std::ostream& os) const;

 private:
  struct InFlight {
    noc::Message request;
    double respond_at = 0.0;  // cycle (fractional) the slot frees up
    std::uint64_t served_bytes = 0;  // whole 64B lines the bus must move
    std::uint64_t row = 0;           // open-row id within the bank
    std::uint32_t bank = 0;
    std::uint32_t bypassed = 0;  // times a younger request issued first
    bool is_write = false;       // writes retire silently, no response
    bool issued = false;         // FR-FCFS: scheduler picked it already
  };

  struct Bank {
    bool open = false;          // any row open yet?
    std::uint64_t row = 0;      // currently open row
    double busy_until = 0.0;    // for non-overlapped busy accounting
  };

  /// First cycle c >= `now` with t <= c.
  [[nodiscard]] static Cycle first_cycle_from(Cycle now, double t) {
    const double c = std::ceil(t);
    return c <= static_cast<double>(now) ? now : static_cast<Cycle>(c);
  }
  [[nodiscard]] std::uint32_t capacity() const {
    return frfcfs_ ? params_.window_entries : params_.queue_entries;
  }
  void admit(double now);
  void schedule_frfcfs(double now);
  void retire(double now);
  void sample_depth();
  void respond(const InFlight& head);

  noc::MeshNetwork& net_;
  EndpointId endpoint_;
  MemParams params_;
  bool frfcfs_;
  double bytes_per_cycle_;
  double latency_cycles_;
  double row_hit_cycles_ = 0.0;
  double row_miss_cycles_ = 0.0;
  // Row-hit preference only reorders when it buys latency; with equal
  // hit/miss latencies FR-FCFS degenerates to pure FCFS (still counting
  // hits/misses), which is what makes the in-order equivalence exact.
  bool reorder_ = false;
  std::uint64_t granules_per_row_ = 1;
  double dram_free_at_ = 0.0;   // when the data bus frees up
  std::deque<InFlight> queue_;  // admission-ordered, <= capacity
  std::vector<Bank> banks_;     // FR-FCFS open-row state
  std::size_t last_sampled_depth_ = 0;
  Cycle last_depth_change_ = 0;
  MemStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::mem
