// Shared helpers for the ablation benches: reduced-size datasets so design
// sweeps finish quickly while exercising the same code paths.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "accel/simulator.hpp"
#include "common/rng.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "sim/batch_runner.hpp"
#include "sim/manifest.hpp"
#include "trace/trace.hpp"

namespace gnna::benchutil {

/// Observability via the environment, for benches that have no CLI flags:
///   GNNA_TRACE=<file>        Chrome-trace JSON event log
///   GNNA_PROFILE=1           aggregate per-phase profiles (attached to
///                            each run's RunStats::profile)
///   GNNA_SAMPLE_EVERY=<n>    periodic sample cadence in NoC cycles
///   GNNA_SAMPLE_FILE=<file>  CSV sidecar for the samples (default stderr)
///   GNNA_ATTR=1              per-vertex/per-tile work attribution
///                            (attached to each run's
///                            RunStats::attribution)
/// Owns the output streams and sink; options() stays valid while this
/// object is alive. When a bench runs several simulations against one
/// EnvTrace, their events share the file with per-run cycle timestamps
/// (the sink is internally mutex-guarded, so this also holds for parallel
/// BatchRunner sweeps; the CSV sampler writes whole rows).
class EnvTrace {
 public:
  EnvTrace() {
    if (const char* p = std::getenv("GNNA_TRACE")) {
      trace_file_.open(p);
      if (trace_file_) {
        sink_.emplace(trace_file_);
        opts_.sink = &*sink_;
      } else {
        std::cerr << "warning: cannot open GNNA_TRACE file " << p << '\n';
      }
    }
    if (const char* p = std::getenv("GNNA_PROFILE")) {
      opts_.profile = *p != '\0' && std::string_view(p) != "0";
    }
    if (const char* p = std::getenv("GNNA_ATTR")) {
      opts_.attribution = *p != '\0' && std::string_view(p) != "0";
    }
    if (const char* p = std::getenv("GNNA_SAMPLE_EVERY")) {
      // Strict parse: a malformed cadence must not silently disable
      // sampling (bare strtoull would return 0 for garbage).
      const auto every = sim::parse_u64(p);
      if (!every) {
        std::cerr << "warning: ignoring malformed GNNA_SAMPLE_EVERY '" << p
                  << "' (want a cycle count)\n";
      } else {
        opts_.sample_every = *every;
      }
      if (opts_.sample_every > 0) {
        if (const char* f = std::getenv("GNNA_SAMPLE_FILE")) {
          sample_file_.open(f);
          if (!sample_file_.is_open()) {
            std::cerr << "warning: cannot open GNNA_SAMPLE_FILE " << f
                      << "; samples go to stderr\n";
          }
        }
        opts_.sample_out = sample_file_.is_open() ? &sample_file_ : &std::cerr;
      }
    }
  }

  [[nodiscard]] const accel::TraceOptions& options() const { return opts_; }

  /// True when any observability output is attached.
  [[nodiscard]] bool active() const {
    return opts_.sink != nullptr || opts_.sample_every > 0;
  }

 private:
  std::ofstream trace_file_;
  std::ofstream sample_file_;
  std::optional<trace::ChromeTraceSink> sink_;
  accel::TraceOptions opts_;
};

/// Worker count for BatchRunner-based sweeps: GNNA_JOBS if set (malformed
/// values warn and fall back), otherwise one per hardware thread. Forced
/// to 1 while env-tracing is active so a shared CSV sample stream stays
/// ordered per run.
inline unsigned default_jobs(const EnvTrace& env) {
  if (env.active()) return 1;
  if (const char* p = std::getenv("GNNA_JOBS")) {
    const auto jobs = sim::parse_u64(p);
    if (!jobs || *jobs > 1024) {
      std::cerr << "warning: ignoring malformed GNNA_JOBS '" << p << "'\n";
    } else if (*jobs > 0) {
      return static_cast<unsigned>(*jobs);
    }
    // GNNA_JOBS=0 falls through to "all cores" (unlike gnnasim --jobs,
    // which requires an explicit count >= 1).
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Progress line printed as each batch run retires (completion order).
inline void progress_to_stderr(const std::string& tag, std::size_t index,
                               const gnna::sim::RunResult& r) {
  std::cerr << '[' << tag << "] run " << index
            << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
}

/// QM9-like subset: `num_graphs` molecules of 12-13 atoms (the paper used
/// the first 1000 QM9 graphs; ablations use fewer for speed).
inline graph::Dataset make_qm9_subset(std::uint32_t num_graphs,
                                      std::uint64_t seed = 11) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec = {"QM9_" + std::to_string(num_graphs), num_graphs, 0, 0, 13, 5, 73};
  for (std::uint32_t i = 0; i < num_graphs; ++i) {
    const NodeId n = 12 + (i % 3 == 0 ? 1 : 0);
    const EdgeId e = 12 + (i % 12 == 0 ? 1 : 0);
    ds.graphs.push_back(graph::generate_molecule_graph(rng, n, e));
    ds.undirected.push_back(ds.graphs.back().symmetrized());
    std::vector<float> nf(std::size_t{n} * 13);
    for (auto& x : nf) x = rng.next_float(0.0F, 1.0F);
    ds.node_features.push_back(std::move(nf));
    std::vector<float> ef(std::size_t{e} * 5);
    for (auto& x : ef) x = rng.next_float(0.0F, 1.0F);
    ds.edge_features.push_back(std::move(ef));
  }
  ds.spec.total_nodes = ds.total_nodes();
  ds.spec.total_edges = ds.total_edges();
  return ds;
}

/// DBLP-like community subgraph at reduced scale.
inline graph::Dataset make_community_subset(NodeId nodes, EdgeId edges,
                                            std::uint64_t seed = 13) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec = {"DBLP_small", 1, nodes, edges, 1, 0, 3};
  ds.graphs.push_back(graph::generate_community_graph(rng, nodes, edges, 3));
  ds.undirected.push_back(ds.graphs[0].symmetrized());
  std::vector<float> nf(nodes);
  for (NodeId v = 0; v < nodes; ++v) {
    nf[v] = static_cast<float>(ds.undirected[0].out_degree(v));
  }
  ds.node_features.push_back(std::move(nf));
  ds.edge_features.emplace_back();
  return ds;
}

}  // namespace gnna::benchutil
