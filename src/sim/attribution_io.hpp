// Reader for the "attribution" block of a stats-JSON file (schema v5, see
// sim/stats_json.cpp): turns a prior run's per-vertex hotspot table into
// the dense load vector profile-guided partitioning consumes
// (graph::partition_work). Accepts both shapes gnnasim emits — a
// single run object and a batch array (first non-error run with an
// attribution block wins).
#pragma once

#include <string>
#include <vector>

namespace gnna::sim {

/// A prior run's attribution profile, reduced to what the partitioner
/// needs.
struct AttributionProfile {
  /// vertex_busy[v] = measured GPE busy cycles for vertex v; 0.0 for
  /// vertices absent from the (bounded, top-K) hotspot table. Sized to the
  /// largest vertex id seen + 1 — callers index with their own vertex
  /// count and treat out-of-range as unknown.
  std::vector<double> vertex_busy;
  std::size_t num_tiles = 0;     // tiles in the profiled run
  double busy_max_mean = 0.0;    // imbalance of the profiled run
  double flit_gini = 0.0;
};

/// Load and reduce the attribution block of `path`. Throws
/// std::runtime_error when the file is unreadable, malformed, or carries
/// no attribution block (e.g. the profiling run forgot --attribution).
[[nodiscard]] AttributionProfile load_attribution_profile(
    const std::string& path);

}  // namespace gnna::sim
