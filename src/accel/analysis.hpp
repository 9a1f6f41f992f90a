// Static analytic performance model (accel::analysis).
//
// Everything the simulator measures dynamically has a static shadow: the
// per-phase micro-op sequences the GPE executes, the DNA initiation
// intervals the dataflow mapper assigns, the bytes the memory controllers
// must move, and the share of that traffic crossing the mesh bisection are
// all functions of the CompiledProgram (+ its graph-layout table), the
// bound dataset's degree sequence, and the AcceleratorConfig alone.
// analyze_program() evaluates that shadow model and returns, per phase:
//
//  - scratchpad occupancy: the DNQ virtual-queue and AGG entry footprints
//    under the virtual-queue split (phase_footprint — the widths the GPE
//    allocates and the split the tile programs), and how many entries fit
//    concurrently (phase_footprint's concurrency, which GV001/GV002,
//    GV101/GV102 and fuse-phases read too). That is the reuse-distance
//    budget: with K GPE threads in flight, ~K entries are live between
//    first and last touch of any one of them, so concurrency << threads
//    means allocation stalls;
//  - a roofline-style cycle lower bound: max over the compute terms (GPE
//    micro-ops, DNA initiation intervals, AGG ALU reduction throughput —
//    each a per-tile maximum under the modeled partition), the memory
//    term (line-rounded served bytes over the aggregate data-bus
//    bandwidth), and the NoC term (bisection-crossing payload over the
//    bisection bandwidth; GV108 fires where it exceeds the memory term).
//    Phases are barrier-separated, so the program bound is the sum of phase bounds
//    and is provably <= the measured cycle count (every term counts a
//    strict subset of the work the simulator serializes on the same
//    resource);
//  - a per-tile load-imbalance bound (max tile load / mean tile load)
//    from the layout table's degree/walk-contribution counts under the
//    partition policy the simulator will apply;
//  - a predicted FR-FCFS row-hit mix for the configured bank mapping
//    (reported alongside the bound, not folded into it: row latency
//    shapes response latency, not data-bus occupancy).
//
// The model surfaces three ways: the GV2xx perf-lint family in
// accel::verify (perf_lints), the `static_model` block in the stats JSON
// (schema v6, compared against measurement by gnnatrace), and
// `gnnaverify --fix` (suggest_fixes), which searches minimal
// TileParams/MemParams/partition adjustments that clear each GV2xx
// diagnostic and prints a patched manifest snippet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/program.hpp"
#include "accel/verify.hpp"
#include "graph/dataset.hpp"
#include "graph/partition.hpp"

namespace gnna::accel {

/// Occupancy of one scratchpad (a DNQ virtual queue or the AGG data
/// scratchpad) for one phase's allocation width.
struct QueueOccupancy {
  bool used = false;                  // the phase allocates entries here
  std::uint64_t entry_bytes = 0;      // one entry's footprint
  std::uint64_t capacity_bytes = 0;   // bytes available under the split
  std::uint64_t concurrency = 0;      // entries resident at once
};

/// Static model of one phase.
struct PhaseModel {
  std::string name;

  // Scratchpad occupancy under the virtual-queue split policy.
  QueueOccupancy dnq0;
  QueueOccupancy dnq1;
  QueueOccupancy agg;

  // Memory traffic. `read_bytes`/`write_bytes` are line-rounded served
  // bytes (what the DRAM data bus moves); `payload_bytes` is the
  // unrounded request payload (what the NoC carries).
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t mem_requests = 0;

  // Predicted FR-FCFS row-hit fraction in [0,1] (0 under in-order, where
  // no row state exists). Optimistic: assumes no inter-request row
  // conflicts within the scheduling window.
  double predicted_row_hit_rate = 0.0;

  // Roofline terms, all in NoC-clock cycles. The compute terms are
  // per-tile maxima under the modeled partition.
  double gpe_cycles = 0.0;
  double dna_cycles = 0.0;
  double agg_cycles = 0.0;
  double compute_cycles = 0.0;  // max(gpe, dna, agg)
  double memory_cycles = 0.0;   // served bytes / aggregate bus bandwidth
  double noc_cycles = 0.0;      // bisection-crossing traffic / bisection bw
  double bound_cycles = 0.0;    // max of the three axes
  /// Which axis set the bound: "gpe" | "dna" | "agg" | "memory" | "noc".
  const char* bottleneck = "";

  /// Max tile load / mean tile load under the modeled partition, from the
  /// per-vertex contribution counts. 0 when per-vertex loads are unknown
  /// (no dataset bound and no expected_contribs) or the phase's load is
  /// uniform by construction.
  double imbalance = 0.0;
};

/// Static model of a whole program on one configuration.
struct ProgramAnalysis {
  std::string program_name;
  std::string config_name;
  std::vector<PhaseModel> phases;
  /// Sum of the phase bounds (phases are barrier-separated, so the sum is
  /// itself a lower bound on the measured end-to-end cycle count).
  double bound_cycles = 0.0;
};

struct AnalysisOptions {
  /// Dataset the program will run against; enables per-vertex degree
  /// loads (exact per-tile compute terms, GV204). Without one the model
  /// falls back to aggregate counts from the layout table.
  const graph::Dataset* dataset = nullptr;
  /// Partition policy the simulator will apply (phase_partition).
  /// Round-robin, block and — given a dataset — degree-greedy are modeled
  /// exactly; profile-guided (whose owners depend on a prior run's
  /// profile) is modeled as perfectly balanced — still a valid lower
  /// bound.
  graph::PartitionPolicy partition = graph::PartitionPolicy::kRoundRobin;
};

/// Evaluate the static model. Never throws on defective programs (bad
/// region ids, zero widths, degenerate TileParams all short-circuit to
/// zero terms) — accel::verify owns those diagnostics.
[[nodiscard]] ProgramAnalysis analyze_program(const CompiledProgram& prog,
                                              const AcceleratorConfig& cfg,
                                              const AnalysisOptions& options =
                                                  {});

/// One GV108/GV2xx performance finding (fed into VerifyReport by verify_program
/// when a config is bound).
struct PerfDiagnostic {
  LintCode code = LintCode::kReuseDistanceThrash;
  int phase = -1;  // -1 for whole-program findings (GV203)
  std::string message;
};

/// Run the perf-lint family over the static model:
///   GV108 NoC term above the memory term (the NoC bounds the phase)
///   GV201 scratchpad reuse-distance thrash
///   GV202 DNQ virtual-queue split starvation
///   GV203 predicted bank camping under the configured bank mapping
///   GV204 partition load imbalance
[[nodiscard]] std::vector<PerfDiagnostic> perf_lints(
    const CompiledProgram& prog, const AcceleratorConfig& cfg,
    const AnalysisOptions& options = {});

/// A minimal adjustment clearing one GV2xx code, found by suggest_fixes.
struct FixSuggestion {
  LintCode code = LintCode::kReuseDistanceThrash;
  std::string description;       // human-readable what/why
  std::string manifest_snippet;  // "key=value" lines for a run manifest
  /// The adjusted configuration (== the input config plus the fix).
  AcceleratorConfig patched;
  /// The adjusted partition policy (== options.partition except for
  /// GV204 fixes).
  graph::PartitionPolicy partition = graph::PartitionPolicy::kRoundRobin;
  /// True iff re-running perf_lints under (patched, partition) no longer
  /// emits `code` — every suggestion is re-linted before it is returned.
  bool verified = false;
};

/// Search minimal TileParams/MemParams/split/partition adjustments that
/// clear each GV2xx diagnostic the current configuration fires. Returns
/// one suggestion per firing code (empty when the config is clean).
[[nodiscard]] std::vector<FixSuggestion> suggest_fixes(
    const CompiledProgram& prog, const AcceleratorConfig& cfg,
    const AnalysisOptions& options = {});

}  // namespace gnna::accel
