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
  double ii_core_cycles = 0.0;    // array-busy time per entry
  std::uint32_t out_words = 0;    // result width
  std::uint64_t macs_per_entry = 0;  // for energy accounting
};

struct DnaStats {
  Counter entries_processed;
  Counter results_sent;
  Counter macs;              // useful MACs executed (energy accounting)
  double busy_cycles = 0.0;  // NoC cycles the array was busy
};

class Dna {
 public:
  Dna(const TileParams& params, noc::MeshNetwork& net, EndpointId endpoint,
      const AddressMap& addr_map, double core_scale);

  /// Phase configuration: per-queue model timings and the weight bytes
  /// that must stream in before processing starts.
  void configure(std::vector<DnaModelTiming> models,
                 std::uint64_t weight_bytes);

  /// Weight-fill data arrived (kMemReadResp tagged kWeightTag).
  void on_weight_data(std::uint64_t bytes);

  /// Pulls ready entries from `dnq`, advances the pipeline, emits results.
  void tick(Dnq& dnq);

  /// Earliest NoC cycle >= `now` at which tick(dnq) could change state:
  /// a result leaving the pipeline, the array freeing up, or a dequeue
  /// (now, or at the lazy-switch instant when only the other queue's head
  /// is ready). kNeverCycle when only a NoC delivery can wake it.
  [[nodiscard]] Cycle next_event(Cycle now, const Dnq& dnq) const;

  [[nodiscard]] bool idle() const {
    return results_.empty() && !busy_ && weights_pending_ == 0;
  }
  [[nodiscard]] bool weights_loaded() const { return weights_pending_ == 0; }
  [[nodiscard]] const DnaStats& stats() const { return stats_; }

  /// Attach an event tracer (per-entry array occupancy). Disabled by
  /// default.
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Deadlock diagnostics: array/pipeline/weight-stream state.
  void dump_state(std::ostream& os) const;

 private:
  struct PendingResult {
    double ready_at = 0.0;
    std::uint32_t out_words = 0;
    std::uint32_t owner = noc::kNoOwner;  // attribution only
    Dest dest;
  };

  void emit(const PendingResult& r);

  TileParams params_;
  noc::MeshNetwork& net_;
  EndpointId endpoint_;
  const AddressMap& addr_map_;
  double scale_;

  std::vector<DnaModelTiming> models_;
  std::uint64_t weights_pending_ = 0;
  double array_free_at_ = 0.0;
  double idle_since_ = 0.0;  // for the DNQ lazy-switch policy
  bool busy_ = false;
  std::deque<PendingResult> results_;  // ordered by ready_at
  DnaStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::accel
