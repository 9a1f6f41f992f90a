// Machine-readable RunStats: the stats JSON that `gnnasim --json` writes,
// and its one reader. gnnatrace and profile-guided partitioning both read
// runs back through read_stats_json, the exact inverse of the writer.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "sim/batch_runner.hpp"

namespace gnna::sim {

/// Version of the per-run JSON object emitted below. v1 had no version
/// field; v2 added "schema_version" and the optional embedded "profile"
/// block (see trace/profiler.hpp); v3 added the memory-scheduler detail:
/// "mem_scheduler", "mem_row_hits"/"mem_row_misses"/"mem_row_hit_rate",
/// "mem_queue_occupancy"/"mem_queue_occupancy_max", and the per-bank
/// "mem_banks" array (empty under the in-order scheduler); v4 added the
/// program-provenance pair "program_hash" (GNNA-IR content hash, 16 hex
/// digits) and "program_cache" (hit | dedupe | miss | file | adhoc |
/// given), present when the run went through the session layer; v5 added
/// the optional embedded "attribution" block (per-tile busy/flit
/// totals, imbalance metrics, exact per-vertex rows — see
/// trace/attribution.hpp) and the time-weighted "mean" field on profile
/// counters; v6 added the "static_model" block (accel/analysis.hpp): the
/// analytic cycle lower bound and per-phase roofline terms evaluated on
/// the exact (program, config, partition) the run executed, so gnnatrace
/// can compare prediction vs. measurement; v7 added "optimized_from" (hex
/// content hash of the pre-optimization program, present only when the run
/// resolved through the validator-gated optimizer — equal to
/// "program_hash" when the optimizer proved the program already optimal;
/// see accel/opt.hpp). Readers should treat a missing field as v1.
inline constexpr int kStatsJsonSchemaVersion = 7;

/// One run as a JSON object (all counters, utilizations, and the per-phase
/// breakdown). Doubles are emitted with round-trip precision.
void write_run_stats_json(std::ostream& os, const accel::RunStats& rs,
                          int indent = 0);

/// A batch as a JSON array, in request order. Failed runs become
/// {"error": "..."} entries so indices still line up with the manifest.
void write_batch_json(std::ostream& os, const std::vector<RunResult>& results);

/// Read a stats JSON file back: the exact inverse of write_batch_json (a
/// single run object reads as a batch of one). Every field the writer
/// emits is decoded, the profile, attribution and static_model blocks
/// included; a field a later schema version added may be missing. Throws
/// std::runtime_error naming the file and the row on unreadable or
/// malformed input: a row that is not an object or lacks its id, a count
/// that is negative, fractional or out of range, a value of the wrong type.
[[nodiscard]] std::vector<RunResult> read_stats_json(const std::string& path);

/// The attribution block of the first successful run in `path` that has
/// one: a prior run's measured loads, which profile-guided partitioning
/// packs. Throws std::runtime_error when no run has one (the profiling run
/// was made without --attribution), or when read_stats_json does.
[[nodiscard]] std::shared_ptr<const trace::AttributionReport>
read_attribution(const std::string& path);

/// `s` escaped for use inside a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace gnna::sim
