// The DNN Accelerator (DNA) — Fig 5.
//
// An Eyeriss-like spatial array (Table I) behind a latency-throughput
// model: each DNQ entry occupies the array for an initiation interval
// derived from the NN-Dataflow-like mapper, and its result emerges a fixed
// pipeline latency later, combined with its destination into NoC flits.
// Per-phase weights are streamed from memory at configuration time; the
// array stalls until they arrive.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "accel/addrmap.hpp"
#include "accel/config.hpp"
#include "accel/dnq.hpp"
#include "common/stats.hpp"
#include "dataflow/spatial.hpp"
#include "noc/network.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

/// Timing of one DNN model resident on the DNA (one per virtual queue).
struct DnaModelTiming {
  std::uint64_t ii_core_cycles = 0;  // array-busy time per entry
  std::uint32_t out_words = 0;    // result width
  std::uint64_t macs_per_entry = 0;  // for energy accounting
};

/// Timing of the DNN model `shapes` (a chain of matmuls) emitting
/// `out_words` per entry: its initiation interval is the sum of the
/// NN-Dataflow-like mapper's best-mapping compute cycles per stage at
/// `core_clock`. A chain with a zero dimension (GV005) times as zero.
[[nodiscard]] DnaModelTiming dna_model_timing(
    const std::vector<dataflow::MatmulShape>& shapes, std::uint32_t out_words,
    const TileParams& tp, Frequency core_clock);

/// Core cycles one DNQ entry of `width_words` occupies the array: entry
/// readout runs at one flit (16 words) per core cycle overlapped with
/// compute, so the array is busy for the larger of the two, floored by
/// `tp.dna_min_ii`.
[[nodiscard]] std::uint64_t dna_entry_ii(const DnaModelTiming& model,
                                         std::uint32_t width_words,
                                         const TileParams& tp);

struct DnaStats {
  Counter entries_processed;
  Counter macs;              // useful MACs executed (energy accounting)
  std::uint64_t busy_time = 0;  // time the array was busy (ClockRatio)
};

class Dna {
 public:
  /// `dnq` is the tile's queue the DNA dequeues from; it must outlive the
  /// DNA.
  Dna(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
      const AddressMap& addr_map, ClockRatio ratio, Dnq& dnq);

  /// Phase configuration: per-queue model timings and the weight bytes
  /// that must stream in before processing starts.
  void configure(std::vector<DnaModelTiming> models,
                 std::uint64_t weight_bytes);

  /// Weight-fill data arrived (kMemReadResp tagged kWeightTag).
  void on_weight_data(std::uint64_t bytes);

  /// Pulls ready entries from the DNQ, advances the pipeline, emits
  /// results. The DNA decides the DNQ's lazy queue switch: it allows one
  /// once it has sat idle for `dnq_idle_switch_cycles` core cycles.
  void tick();

  /// Earliest NoC cycle >= `now` at which tick() could change state:
  /// a result leaving the pipeline, the array freeing up, or a dequeue
  /// (now, or at the lazy-switch instant when only the other queue's head
  /// is ready). kNeverCycle when only a NoC delivery can wake it.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] bool idle() const {
    return results_.empty() && !busy_ && weights_pending_ == 0;
  }
  [[nodiscard]] const DnaStats& stats() const { return stats_; }

  /// Attach an event tracer (per-entry array occupancy). Disabled by
  /// default.
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Deadlock diagnostics: array/pipeline/weight-stream state.
  void dump_state(std::ostream& os) const;

 private:
  struct PendingResult {
    std::uint64_t ready_at = 0;
    std::uint32_t out_words = 0;
    std::uint32_t owner = noc::kNoOwner;  // attribution only
    Dest dest;
  };

  TileParams params_;
  noc::MeshNetwork& net_;
  EndpointId endpoint_;
  const AddressMap& addr_map_;
  ClockRatio ratio_;
  Dnq& dnq_;

  std::vector<DnaModelTiming> models_;
  std::uint64_t weights_pending_ = 0;
  std::uint64_t array_free_at_ = 0;
  std::uint64_t idle_since_ = 0;  // for the DNQ lazy-switch policy
  bool busy_ = false;
  std::deque<PendingResult> results_;  // ordered by ready_at
  DnaStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::accel
