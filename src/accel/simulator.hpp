// Whole-accelerator simulator: builds the mesh (Fig 9), instantiates tiles
// and memory nodes, and executes a compiled program phase by phase with
// global barriers between phases (Algorithm 1).
#pragma once

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/program.hpp"
#include "accel/tile.hpp"
#include "graph/dataset.hpp"
#include "graph/partition.hpp"
#include "mem/memory.hpp"
#include "noc/network.hpp"
#include "trace/attribution.hpp"
#include "trace/profiler.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

struct ProgramAnalysis;  // accel/analysis.hpp

/// Observability knobs for one run. All default to "off"; with the
/// defaults the simulator behaves (and performs) exactly as before. The
/// run-option table (sim/options.hpp) sets every field but the two
/// pointers, which are for API callers.
struct TraceOptions {
  /// Event sink (e.g. a ChromeTraceSink). Not owned; must outlive run().
  /// Excludes `trace_path`.
  trace::TraceSink* sink = nullptr;
  /// Chrome-trace JSON file that run() writes through a ChromeTraceSink of
  /// its own. It is complete when run() returns, or, if run() throws, once
  /// the simulator is destroyed. Excludes `sink`.
  std::string trace_path;
  /// Aggregate the run's event stream into a trace::ProfileReport
  /// (attached to RunStats::profile). Composes with the trace: both
  /// consume the same events. Pure observation — cycle counts are
  /// unchanged.
  bool profile = false;
  /// Periodic time-series sampling: every `sample_every` NoC cycles emit
  /// one CSV row and counter events to the trace (if any). 0 disables
  /// sampling. The rows go to `sample_path` if set, else to `sample_out`
  /// (not owned; must outlive run()), else to stderr.
  Cycle sample_every = 0;
  std::string sample_path;
  std::ostream* sample_out = nullptr;
  /// When the progress watchdog fires, also write the diagnostics report
  /// to this path (the exception message carries it regardless).
  std::string deadlock_report_path;
  /// Aggregate per-vertex/per-tile work attribution into a
  /// trace::AttributionReport (attached to RunStats::attribution).
  /// Composes with the trace and `profile` through the same tee. Pure
  /// observation — cycle counts are unchanged. Every vertex is counted
  /// exactly, in a table sized to the program's vertex count.
  bool attribution = false;
};

/// Per-phase slice of a run.
struct PhaseStats {
  std::string name;
  Cycle cycles = 0;
  std::uint64_t mem_bytes_served = 0;
  std::uint64_t tasks = 0;
};

/// Result of simulating one program on one configuration.
struct RunStats {
  std::string config_name;
  std::string program_name;
  double core_clock_ghz = 0.0;

  // Program provenance (filled by the session layer, src/sim): the GNNA-IR
  // content hash of the executed program and where it came from — "miss"
  // (freshly compiled), "hit" (memoized by (benchmark, seed)), "dedupe"
  // (compiled, then matched an identical cached program by hash), "file"
  // (loaded from a .gnna program file), or "given" (caller-supplied).
  // Empty / zero when the simulator is driven directly.
  std::uint64_t program_hash = 0;
  std::string program_cache;
  // Content hash of the pre-optimization program when the run resolved
  // through the optimizer (RunRequest::optimize); 0 otherwise. Equal to
  // program_hash when the optimizer proved the program already optimal.
  std::uint64_t optimized_from = 0;

  Cycle cycles = 0;  // NoC-clock cycles end to end
  double seconds = 0.0;
  double millis = 0.0;

  std::uint64_t mem_bytes_requested = 0;
  std::uint64_t mem_bytes_served = 0;
  double mean_bandwidth_gbps = 0.0;   // served bytes / runtime
  double bandwidth_utilization = 0.0; // vs aggregate peak (Fig 10 left)

  // Memory-controller scheduling detail. The row/bank fields are all zero
  // (and mem_banks empty) under the default in-order scheduler.
  std::string mem_scheduler;          // "in_order" | "frfcfs"
  std::uint64_t mem_row_hits = 0;
  std::uint64_t mem_row_misses = 0;
  double mem_row_hit_rate = 0.0;      // hits / (hits + misses), in [0,1]
  double mem_queue_occupancy = 0.0;   // time-weighted mean queue depth
  double mem_queue_occupancy_max = 0.0;
  struct MemBankStats {
    std::uint32_t mem = 0;   // controller index
    std::uint32_t bank = 0;  // bank index within that controller
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    double busy_frac = 0.0;  // bank-active cycles / total run cycles
  };
  std::vector<MemBankStats> mem_banks;

  double dna_utilization = 0.0;  // fraction of time DNA busy (Fig 10 right)
  double gpe_utilization = 0.0;
  double agg_utilization = 0.0;

  std::uint64_t tasks_completed = 0;
  std::uint64_t packets_delivered = 0;
  double avg_packet_latency = 0.0;
  std::uint64_t dnq_queue_switches = 0;
  std::uint64_t alloc_stalls = 0;

  // Raw activity counters (inputs to the energy model, src/accel/energy.*).
  std::uint64_t noc_flit_hops = 0;
  std::uint64_t noc_flits_delivered = 0;
  std::uint64_t agg_words_reduced = 0;
  std::uint64_t dna_macs = 0;
  std::uint64_t gpe_actions = 0;
  std::uint64_t dnq_words = 0;

  std::vector<PhaseStats> phases;

  /// Per-phase/per-unit profile; set when TraceOptions::profile was on
  /// (shared so RunStats stays cheap to copy through batch result slots).
  std::shared_ptr<const trace::ProfileReport> profile;

  /// Per-vertex/per-tile attribution; set when TraceOptions::attribution
  /// was on.
  std::shared_ptr<const trace::AttributionReport> attribution;

  /// Static analytic performance model (accel/analysis.hpp), evaluated on
  /// the same (program, config, partition) this run executed. Always set
  /// by AcceleratorSim::run — purely static, never perturbs cycle counts.
  std::shared_ptr<const ProgramAnalysis> static_model;
};

class AcceleratorSim {
 public:
  explicit AcceleratorSim(
      AcceleratorConfig cfg,
      graph::PartitionPolicy partition = graph::PartitionPolicy::kRoundRobin);

  /// Execute `prog` against dataset `ds` to completion and report
  /// timing/utilization. Programs are dataset-independent artifacts
  /// (compiled or loaded from GNNA-IR text); the dataset supplies the
  /// graph topology the traversal walks and must match the program's
  /// graph-layout table (accel::verify checks this, GV012). A fresh
  /// simulator instance is required per run.
  [[nodiscard]] RunStats run(const CompiledProgram& prog,
                             const graph::Dataset& ds);

  /// Progress watchdog threshold: cycles without retired work (a packet
  /// delivered, memory bytes served, a task, DNA entry or AGG
  /// contribution completed) before run() aborts with diagnostics.
  void set_watchdog_cycles(Cycle c) { watchdog_cycles_ = c; }

  /// Static program verification before the timing model starts (on by
  /// default): run() throws ProgramVerifyError when accel::verify finds
  /// errors, instead of deadlocking mid-simulation.
  void set_verify(bool v) { verify_ = v; }

  /// Reference loop, for tests: tick every tile and memory controller on
  /// every cycle and never jump (DESIGN.md §17). A run must produce the
  /// same output either way.
  void set_reference_loop(bool on) { reference_loop_ = on; }

  /// The most GPEs spinning at once when the loop jumped (DESIGN.md §17),
  /// for tests; 0 if none spun at a jump.
  [[nodiscard]] std::size_t most_spinning() const { return most_spinning_; }

  /// Attach observability outputs; must be called before run(). Throws
  /// std::invalid_argument when two outputs of one kind are given (a
  /// trace path and a sink, a sample path and a stream) or a sample path
  /// without a cadence.
  void set_trace(TraceOptions opts);

  /// Measured per-vertex loads (e.g. a prior run's attribution busy
  /// cycles) that PartitionPolicy::kProfileGuided packs; see
  /// phase_partition. Ignored by the other policies.
  void set_profile_loads(std::vector<double> loads) {
    profile_loads_ = std::move(loads);
  }

  /// Full simulator state snapshot (every tile's unit state, memory queue
  /// contents, in-flight NoC packets). Used by the watchdog; callable any
  /// time after run() has started building.
  [[nodiscard]] std::string deadlock_report(const std::string& phase) const;

 private:
  void build();
  void attach_tracers(const CompiledProgram& prog);
  void begin_sampling();
  /// Emit one sampler row (and counter events) for the current cycle and
  /// schedule the next.
  void sample(const std::string& phase_name);
  /// Catch every spinning GPE up to the current cycle (Gpe::catch_up).
  void catch_up();
  /// The watchdog trip: throws std::runtime_error with deadlock_report(),
  /// which also goes to TraceOptions::deadlock_report_path if set.
  [[noreturn]] void trip_watchdog(const std::string& phase);
  /// True when every tile and memory controller was idle after its last
  /// tick and the NoC is idle.
  [[nodiscard]] bool everything_idle() const {
    return busy_units_ == 0 && net_->idle();
  }
  /// Retired work so far; the watchdog trips when it stops changing.
  [[nodiscard]] std::uint64_t progress_signature() const {
    return retired_ + net_->stats().packets_delivered.value();
  }
  /// Earliest cycle >= `now` at which the NoC's, any tile's or any memory
  /// controller's tick could change state (kNeverCycle if none can),
  /// leaving out spinning GPEs: the NoC's next event and the calendar's
  /// earliest due cycle. Traced, a spinning GPE's retries count in its
  /// tile's due cycle, and its other units' next event replaces that.
  [[nodiscard]] Cycle next_event(Cycle now) const;
  /// Tick tile `i` or memory controller `i` in the pass of cycle `now`,
  /// then set its calendar entry from its next event after `now`.
  void tick_tile(std::size_t i, Cycle now);
  void tick_mem(std::size_t i, Cycle now);
  /// Record unit `u`'s idleness and retired work after a tick or a
  /// begin_phase.
  void settle(std::size_t u, bool idle, std::uint64_t retired);
  /// At a jump from `at` to `to`: count the spinning GPEs, and, traced,
  /// tick each through its retries before `to` with Gpe::spin, in (cycle,
  /// tile) order. GPEs due at the earliest cycle c spin to `to`, or to
  /// c + 1 when several spin, so trace events keep the order passes of
  /// the loop would give them. Untraced, spinning GPEs lag instead, and
  /// catch up (Gpe::catch_up) before their tile ticks, before a sample
  /// row and before a watchdog report (DESIGN.md §17).
  void advance_spinning(Cycle at, Cycle to);

  AcceleratorConfig cfg_;
  graph::PartitionPolicy partition_;
  bool used_ = false;
  bool verify_ = true;
  bool reference_loop_ = false;
  Cycle watchdog_cycles_ = 2'000'000;
  TraceOptions trace_;

  // Output files opened from trace_'s paths; each stream outlives the
  // sink writing to it.
  std::ofstream trace_file_;
  std::ofstream sample_file_;
  std::unique_ptr<trace::ChromeTraceSink> chrome_;
  // Effective event sink: trace_.sink, the profiler, the attribution
  // sink, or a tee of those attached.
  trace::TraceSink* sink_ = nullptr;
  std::unique_ptr<trace::Profiler> profiler_;
  std::unique_ptr<trace::Attribution> attribution_;
  trace::TeeSink tee_;

  // NoC endpoint id -> owning tile (trace::Attribution::kNoTile for
  // memory endpoints); filled by build().
  std::vector<std::uint32_t> ep_to_tile_;
  std::vector<double> profile_loads_;

  // Periodic-sampler state (valid during run()); next_sample_ stays
  // kNeverCycle with sampling off.
  Cycle next_sample_ = kNeverCycle;
  Cycle last_sample_cycle_ = 0;
  std::uint64_t prev_gpe_busy_ = 0;  // busy times (ClockRatio)
  std::uint64_t prev_dna_busy_ = 0;
  std::uint64_t prev_agg_busy_ = 0;
  std::vector<std::uint64_t> prev_mem_bytes_;

  ClockRatio ratio_;  // the tile units' time unit; set by build()
  std::unique_ptr<noc::MeshNetwork> net_;
  std::unique_ptr<AddressMap> addr_map_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  std::size_t most_spinning_ = 0;
  // advance_spinning's (tile, next retry) of each spinning GPE.
  std::vector<std::pair<std::size_t, Cycle>> spinning_;
  std::vector<std::unique_ptr<mem::MemoryController>> mems_;

  // The event calendar (DESIGN.md §17): one entry per unit, the tiles
  // first, then the memory controllers. A pass ticks a unit once its
  // `due` cycle has come.
  struct CalendarEntry {
    Cycle due = 0;  // next_event() after the last tick, or a wake-up
    std::uint64_t retired = 0;  // the unit's retired work at settle()
    bool idle = true;           // the unit's idle() at settle()
  };
  std::vector<CalendarEntry> calendar_;
  // NoC endpoint -> the calendar entry of the unit it belongs to.
  std::vector<std::uint32_t> ep_unit_;
  std::size_t busy_units_ = 0;  // entries with !idle
  std::uint64_t retired_ = 0;   // the sum of the entries' `retired`
};

}  // namespace gnna::accel
