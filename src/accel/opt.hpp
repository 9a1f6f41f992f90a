// GNNA-IR optimization passes (accel::opt).
//
// A small pass manager over CompiledPrograms, gated by the translation
// validator (accel/validate.hpp): after every pass that changes the
// program, the pass output is statically proved equivalent to the pass
// input, and an unproven rewrite is discarded — optimize_program() never
// returns a program it could not prove.
//
// Pass suite, in pipeline order:
//
//   fuse-phases     Fuse a pure gather+aggregate phase into the adjacent
//                   projection that consumes (only) its output, recovering
//                   the aggregate-then-project form the hardware pipelines
//                   in one phase (Fig. 1) — one barrier and one
//                   intermediate buffer round-trip through memory removed
//                   per fusion. Applied only when the fused phase's
//                   footprint (phase_footprint) still admits >= 2
//                   concurrent DNQ entries.
//   dedup-contribs  Drop expected_contribs tables on walk_len <= 1 phases
//                   (the runtime uses the CSR degrees directly; the table
//                   is dead weight in the serialized program).
//   dead-regions    Remove memory-map regions no graph table or phase
//                   field references (e.g. intermediates orphaned by
//                   fusion), renumbering the surviving region ids.
//   pack-regions    Re-layout the memory map: slide every region down to
//                   the packed 64B-aligned cursor, closing the gaps dead
//                   regions left behind.
#pragma once

#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/program.hpp"
#include "accel/validate.hpp"
#include "graph/dataset.hpp"

namespace gnna::accel::opt {

struct OptimizeOptions {
  /// Dataset the program will run against (optional); forwarded to the
  /// validator's topology-dependent obligations.
  const graph::Dataset* dataset = nullptr;
  /// Accelerator configuration (optional; defaults to cpu_iso_bw). Sets
  /// the scratchpad footprint bound for fuse-phases and the validator's
  /// TileParams / cycle-bound config.
  const AcceleratorConfig* config = nullptr;
  /// Pass subset to run, in the given order. Empty = the full pipeline.
  std::vector<std::string> passes;
};

/// One pipeline step: what the pass did and, when it changed the program,
/// the proof that the change is sound.
struct PassOutcome {
  std::string pass;
  bool changed = false;
  std::string summary;
  validate::ValidationResult validation;  // empty when nothing changed
};

struct OptimizeResult {
  /// The optimized program — or the last proven program when a pass
  /// failed validation (the unproven rewrite is never returned).
  CompiledProgram program;
  std::vector<PassOutcome> passes;
  /// False iff some pass produced a rewrite the validator rejected.
  bool validated = true;
  /// Human-readable reason when !validated.
  std::string failure;

  [[nodiscard]] bool changed() const {
    for (const auto& p : passes) {
      if (p.changed) return true;
    }
    return false;
  }
};

/// Catalog entry for `gnnaopt --list-passes` and docs.
struct PassInfo {
  const char* name;
  const char* summary;
};
[[nodiscard]] const std::vector<PassInfo>& pass_catalog();

/// Run the pass pipeline over `prog`. Throws std::invalid_argument for an
/// unknown pass name in options.passes; never throws on program content.
[[nodiscard]] OptimizeResult optimize_program(const CompiledProgram& prog,
                                              const OptimizeOptions& options =
                                                  {});

}  // namespace gnna::accel::opt
