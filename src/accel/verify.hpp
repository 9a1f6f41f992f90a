// Static program verification (accel::verify).
//
// A compiled program (PhaseSpec sequence + MemoryMap) can violate hard
// hardware invariants — 62kB DNQ/AGG scratchpads, associative-only AGG
// reductions, valid allocation-time destinations — and until now those
// violations surfaced as mid-simulation deadlocks (caught, at best, by the
// watchdog) or silently wrong timing. verify_program() runs a static
// analysis pass over the program *before* the timing model and emits
// structured diagnostics with stable lint codes, severity, and
// phase/buffer provenance, so the watchdog's deadlock dumps become a last
// resort instead of the first line of defense.
//
// Lint codes are stable identifiers (GV0xx = error, GV1xx = warning):
//
//   GV001  DNQ entry can never fit its virtual queue (guaranteed deadlock)
//   GV002  AGG entry exceeds the data scratchpad (guaranteed deadlock)
//   GV003  non-associative AGG reduce op
//   GV004  bad buffer reference (bad region id, zero width, region too
//          small for its indexed extent, producer/consumer width mismatch)
//   GV005  bad DNA model (incompatible matmul chain, zero dimensions,
//          inconsistent out_words, missing/misplaced model)
//   GV006  expected_contribs inconsistent with the walk tree
//   GV007  malformed MemoryMap (overlap, misalignment, overflow)
//   GV008  buffer read before any phase writes it
//   GV009  illegal phase-field combination
//   GV010  unusable TileParams (zero ALUs/threads/scratchpads, bad split)
//   GV011  malformed graph-layout table (empty, zero-vertex graph,
//          non-contiguous node/edge offsets, bad or undersized
//          rowptr/colidx regions) — parse-level defects a hand-written
//          .gnna file can carry but the compiler can never emit
//   GV012  graph-layout table disagrees with the bound dataset
//   GV101  AGG scratchpad admits < 2 concurrent entries (serialized aggs)
//   GV102  DNQ virtual queue admits < 2 concurrent entries
//          (GV001/GV002/GV101/GV102 read phase_footprint's concurrency:
//          0 entries is the error, 1 the warning)
//   GV103  dead store: phase output never read and not the program result
//   GV104  expected_contribs supplied but unused (walk_len == 1)
//   GV105  weight_bytes > 0 on a phase with no DNA model
//   GV106  phase output overwrites a preloaded region
//   GV107  no dataset bound: topology-dependent checks skipped
//   GV108  the static model's NoC term exceeds its memory term on a
//          phase (PhaseModel::noc_cycles > memory_cycles): the request
//          payload crossing the mesh bisection takes longer than the
//          line-rounded bytes take on the memory bus, so the NoC, not
//          memory, bounds the phase. Emitted by perf_lints, under the
//          GV2xx rule below.
//
// GV2xx = performance lints from the static analytic model
// (accel/analysis.hpp). They report configurations that will run, and run
// correctly, but leave modeled hardware parallelism on the table. Like
// GV108 they need the accelerator config and are skipped without one, and
// on programs with error diagnostics:
//
//   GV201  scratchpad reuse-distance thrash: a DNQ virtual queue or the
//          AGG scratchpad admits fewer concurrent entries than a quarter
//          of the GPE thread pool, so most in-flight threads stall on
//          allocation (the serialized < 2 case stays GV101/GV102)
//   GV202  DNQ virtual-queue split starvation: the configured
//          queue0_sixteenths starves one virtual queue below 2 entries
//          while some other split admits >= 2 in both
//   GV203  predicted bank camping: under FR-FCFS, the page/bank
//          interleave combination maps every controller's traffic onto a
//          strict subset of its banks (mem_bank_xor=1 fixes it)
//   GV204  partition load imbalance: the modeled partition concentrates a
//          phase's per-vertex load so the heaviest tile does >= 1.5x the
//          mean work
//
// Programs are dataset-independent, so most checks run from the program's
// own graph-layout table alone. Passing the dataset the program will run
// against enables the topology-dependent checks (GV006 walk-tree
// recomputation, GV104 degree comparison, GV012 layout agreement);
// without one, those are skipped and GV107 notes it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/program.hpp"
#include "graph/dataset.hpp"
#include "graph/partition.hpp"

namespace gnna::accel {

enum class LintCode : std::uint16_t {
  // Errors: the program cannot execute correctly on the modeled hardware.
  kDnqEntryTooLarge = 1,
  kAggEntryTooLarge = 2,
  kNonAssociativeAggOp = 3,
  kBadBufferRef = 4,
  kBadDnaModel = 5,
  kBadExpectedContribs = 6,
  kBadMemoryMap = 7,
  kReadBeforeWrite = 8,
  kIllegalPhaseCombo = 9,
  kBadTileParams = 10,
  kBadGraphLayout = 11,
  kDatasetMismatch = 12,
  // Warnings: legal but probably not what the author intended.
  kAggLowConcurrency = 101,
  kDnqLowConcurrency = 102,
  kDeadStore = 103,
  kUnusedExpectedContribs = 104,
  kWeightsWithoutDna = 105,
  kOutputClobbersPreload = 106,
  kNoDatasetBound = 107,
  kNocBisectionSaturated = 108,
  // Performance lints from the static analytic model (accel/analysis.hpp).
  kReuseDistanceThrash = 201,
  kQueueSplitStarved = 202,
  kBankCamping = 203,
  kPartitionImbalance = 204,
};

enum class Severity : std::uint8_t { kWarning, kError };

/// Code families, for grouped `gnnaverify --list-codes` output. Perf lints
/// are warnings by severity; the family tells the two apart.
enum class LintFamily : std::uint8_t { kError, kWarning, kPerf };

/// "GV001", "GV102", ... — the stable identifier printed in diagnostics.
[[nodiscard]] const char* lint_code_name(LintCode code);
[[nodiscard]] constexpr Severity lint_code_severity(LintCode code) {
  return static_cast<std::uint16_t>(code) >= 100 ? Severity::kWarning
                                                 : Severity::kError;
}
[[nodiscard]] constexpr LintFamily lint_code_family(LintCode code) {
  const auto v = static_cast<std::uint16_t>(code);
  return v >= 200 ? LintFamily::kPerf
         : v >= 100 ? LintFamily::kWarning
                    : LintFamily::kError;
}
[[nodiscard]] const char* lint_family_name(LintFamily family);

struct VerifyDiagnostic {
  LintCode code = LintCode::kBadMemoryMap;
  Severity severity = Severity::kError;
  int phase = -1;          // phase index, or -1 for whole-program findings
  std::string phase_name;  // empty for whole-program findings
  std::string message;
};

struct VerifyReport {
  std::string program_name;
  std::vector<VerifyDiagnostic> diagnostics;

  [[nodiscard]] std::size_t num_errors() const;
  [[nodiscard]] std::size_t num_warnings() const;
  [[nodiscard]] bool ok() const { return num_errors() == 0; }
  [[nodiscard]] bool has(LintCode code) const;

  /// "GV001 error phase 2 (gcn.att): ..." — one line per diagnostic plus a
  /// summary header.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;
};

/// Run every check against `prog` under tile parameters `params`. `ds`
/// (optional) is the dataset the program will run against; it enables the
/// topology-dependent checks (see the header comment). `cfg` (optional) is
/// the full accelerator configuration; it enables the config-dependent
/// checks (GV108 and the GV2xx perf lints, all from the static model) —
/// pass the same config the program will execute on. `partition` is the policy the
/// simulator will apply (GV204 models it). Never throws on program defects
/// — they all land in the report.
[[nodiscard]] VerifyReport verify_program(
    const CompiledProgram& prog, const TileParams& params,
    const graph::Dataset* ds = nullptr,
    const AcceleratorConfig* cfg = nullptr,
    graph::PartitionPolicy partition = graph::PartitionPolicy::kRoundRobin);

/// Thrown by verify_or_throw; carries the full report.
class ProgramVerifyError : public std::runtime_error {
 public:
  explicit ProgramVerifyError(VerifyReport report);
  [[nodiscard]] const VerifyReport& report() const { return report_; }

 private:
  VerifyReport report_;
};

/// verify_program + throw ProgramVerifyError if any *error* diagnostics
/// were produced (warnings never throw). Returns the report otherwise.
VerifyReport verify_or_throw(
    const CompiledProgram& prog, const TileParams& params,
    const graph::Dataset* ds = nullptr,
    const AcceleratorConfig* cfg = nullptr,
    graph::PartitionPolicy partition = graph::PartitionPolicy::kRoundRobin);

/// The full lint-code catalog, for `gnnaverify --list-codes` and docs.
struct LintCodeInfo {
  LintCode code;
  Severity severity;
  const char* name;
  const char* summary;
};
[[nodiscard]] std::vector<LintCodeInfo> lint_code_table();

}  // namespace gnna::accel
