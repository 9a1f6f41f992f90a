// The session layer: one process-wide home for everything a simulation run
// needs that is immutable and shareable — generated datasets and compiled
// programs — plus the single entry point that turns a RunRequest into
// RunStats.
//
// Every driver in the repo (gnnasim, the bench_* sweeps, the examples)
// resolves runs through a Session instead of hand-rolling the dataset ->
// model -> compile -> simulate pipeline. Within one Session, N runs of the
// same benchmark share one dataset and one compiled program; only the
// per-run AcceleratorSim (cheap to construct, single-use, fully
// independent) is rebuilt.
//
// Thread-safety: resolve()/run() may be called concurrently from
// BatchRunner workers. The caches are mutex-guarded and compile each
// (benchmark, seed) once; the simulators themselves share nothing
// mutable, so concurrent runs are bit-identical to serial runs.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "gnn/model.hpp"
#include "graph/dataset_cache.hpp"
#include "graph/partition.hpp"

namespace gnna::sim {

/// One simulation to run: the immutable experiment inputs (what to run)
/// plus the per-run knobs (how to run it). Copyable and cheap — custom
/// datasets and pre-compiled programs are carried by shared_ptr.
struct RunRequest {
  // -- Workload. Exactly one of the four forms must be set; precedence is
  //    program > program_file > benchmark > (model, dataset).
  /// A Table VII benchmark, resolved through the session caches.
  std::optional<gnn::Benchmark> benchmark;
  /// A pre-compiled program (from Session::compile). `dataset` must be the
  /// dataset it will run against (programs are dataset-independent, but
  /// their graph-layout table must match — accel::verify checks, GV012).
  std::shared_ptr<const accel::CompiledProgram> program;
  /// A GNNA-IR program file (.gnna) loaded instead of compiling. The
  /// dataset comes from `dataset` if set, else from `benchmark` + `seed`;
  /// the loaded program runs through accel::verify before simulation.
  std::string program_file;
  /// An explicit model over an explicit dataset (custom sweeps).
  std::optional<gnn::ModelSpec> model;
  std::shared_ptr<const graph::Dataset> dataset;

  // -- Per-run knobs.
  accel::AcceleratorConfig config = accel::AcceleratorConfig::cpu_iso_bw();
  /// Core-clock override in GHz; unset keeps config.core_clock.
  std::optional<double> clock_ghz;
  /// GPE software-thread override; unset keeps config.tile_params.
  std::optional<std::uint32_t> threads;
  graph::PartitionPolicy partition = graph::PartitionPolicy::kRoundRobin;
  /// Profile-guided partitioning input: path to a prior run's stats JSON
  /// (written with TraceOptions::attribution on). With partition ==
  /// kProfileGuided, Session::run LPT-packs its per-vertex busy cycles onto
  /// the tiles (graph::partition_work); uncovered vertices go round-robin.
  /// Session::run throws std::invalid_argument when it is empty under
  /// kProfileGuided, or names a vertex past the run's vertex count.
  std::string attribution_from;
  /// Dataset seed (benchmark form only; explicit datasets carry their own).
  std::uint64_t seed = 2020;
  std::optional<Cycle> watchdog_cycles;
  /// Static program verification (accel::verify) before simulating; the
  /// run throws accel::ProgramVerifyError on lint errors. On by default.
  bool verify = true;
  /// Route the resolved program through the accel::opt pass pipeline,
  /// gated by the translation validator (accel::validate). The optimized
  /// program is content-hashed and cached separately in the session
  /// program store, with provenance "<source>+opt" and the source hash in
  /// RunStats::optimized_from. Throws std::runtime_error if any pass
  /// output cannot be proved equivalent (the unproven program is never
  /// run). Off by default.
  bool optimize = false;
  /// Per-run observability. The run opens its output paths itself; under a
  /// BatchRunner each run needs its own (sim::per_run_paths). A sink may be
  /// shared if it is thread-safe (ChromeTraceSink is internally locked); a
  /// plain ostream sample_out must not be.
  accel::TraceOptions trace;
  /// Optional display name; overrides the program name in the stats.
  std::string label;

  /// The configuration the run executes on: `config` with the clock and
  /// thread overrides applied.
  [[nodiscard]] accel::AcceleratorConfig effective_config() const {
    accel::AcceleratorConfig cfg = config;
    if (clock_ghz) cfg = cfg.with_core_clock(*clock_ghz);
    if (threads) cfg.tile_params.gpe_threads = *threads;
    return cfg;
  }
};

class Session {
 public:
  /// A resolved workload: the program, the dataset it runs against, and
  /// cache provenance (the program's GNNA-IR content hash plus where it
  /// came from — "hit", "dedupe", "miss", "file", "adhoc", or "given";
  /// see RunStats::program_cache).
  struct Resolved {
    std::shared_ptr<const graph::Dataset> dataset;
    std::shared_ptr<const accel::CompiledProgram> program;
    std::uint64_t hash = 0;
    std::string source;
    /// Content hash of the pre-optimization program when the request ran
    /// the optimizer (RunRequest::optimize); 0 otherwise.
    std::uint64_t optimized_from = 0;
  };

  /// Cache-hit accounting (for tests and cache-effectiveness reports).
  /// The program cache is two-level: a (benchmark, seed) memo in front of
  /// a content-hash store. `program_hits` counts memo hits (no compile,
  /// including callers that waited on another thread's compile of the
  /// same key), `program_dedupes` counts compiles whose IR hash matched an
  /// existing program (compiled, then shared), `program_misses` counts
  /// fresh inserts.
  struct CacheCounters {
    std::uint64_t dataset_hits = 0;
    std::uint64_t dataset_misses = 0;
    std::uint64_t program_hits = 0;
    std::uint64_t program_misses = 0;
    std::uint64_t program_dedupes = 0;
  };

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The dataset for (id, seed) — shared and cached.
  [[nodiscard]] std::shared_ptr<const graph::Dataset> dataset(
      graph::DatasetId id, std::uint64_t seed = 2020);

  /// Compile `model` over `dataset` into a shareable program (uncached —
  /// the caller reuses the handle across requests; benchmark programs go
  /// through the content-keyed cache in resolve() instead).
  [[nodiscard]] Resolved compile(const gnn::ModelSpec& model,
                                 std::shared_ptr<const graph::Dataset> dataset);

  /// Resolve the workload of `req` against the caches. Benchmark programs
  /// go through a (benchmark, seed) memo in front of a store keyed by
  /// GNNA-IR content hash, so identical programs compiled from different
  /// (benchmark, seed) pairs dedupe to one shared instance. Programs
  /// loaded from .gnna files enter the same hash store. Throws
  /// std::invalid_argument if the request names no workload.
  [[nodiscard]] Resolved resolve(const RunRequest& req);

  /// Resolve and execute one run on a fresh single-use AcceleratorSim.
  [[nodiscard]] accel::RunStats run(const RunRequest& req);

  [[nodiscard]] CacheCounters cache_counters() const;

  /// The shared process-wide session, for callers that keep no Session of
  /// their own (one cache for the whole process).
  [[nodiscard]] static Session& global();

 private:
  using MemoKey = std::pair<gnn::Benchmark, std::uint64_t>;

  /// resolve() minus the optimize step (workload lookup + caches only).
  [[nodiscard]] Resolved resolve_base(const RunRequest& req);
  /// Run `base.program` through accel::opt (validator-gated), entering the
  /// optimized program into the hash store under its own content hash.
  [[nodiscard]] Resolved optimized(Resolved base, const RunRequest& req);

  graph::DatasetCache datasets_;

  mutable std::mutex mu_;
  /// (benchmark, seed) -> IR content hash: answers "have we compiled this
  /// request before" without recompiling. The entry is inserted before the
  /// compile starts (single flight): concurrent requests for the key wait
  /// on the one compile instead of repeating it.
  std::map<MemoKey, std::shared_future<std::uint64_t>> memo_;
  /// IR content hash -> the one shared program instance. Entries come from
  /// benchmark compiles and .gnna file loads alike.
  std::map<std::uint64_t, std::shared_ptr<const accel::CompiledProgram>>
      store_;
  std::uint64_t program_hits_ = 0;
  std::uint64_t program_misses_ = 0;
  std::uint64_t program_dedupes_ = 0;
};

}  // namespace gnna::sim
