// Fans a vector of RunRequests across a pool of worker threads.
//
// Each AcceleratorSim is independent and deterministic, so runs can
// execute in any order on any thread and still produce bit-identical
// stats; the runner assigns requests to workers dynamically (an atomic
// cursor) and writes each result into its request's slot, so the returned
// vector is always in request order regardless of completion order.
//
// A run that throws (e.g. the progress watchdog) does not abort the batch:
// its slot carries the error message and every other run still completes.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "sim/session.hpp"

namespace gnna::sim {

/// Outcome of one request in a batch.
struct RunResult {
  accel::RunStats stats;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return error.empty(); }
};

class BatchRunner {
 public:
  /// `jobs` = number of worker threads; 0 means one per hardware thread.
  /// Runs resolve against `session`'s caches, so identical workloads in
  /// one batch share datasets and programs. `session` must outlive the
  /// runner.
  explicit BatchRunner(Session& session, unsigned jobs = 1);

  /// Called after each run finishes (any thread; calls are serialized).
  /// `index` is the request's position in the batch.
  using ProgressFn = std::function<void(std::size_t index, const RunResult&)>;
  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Execute all requests and return their results in request order.
  /// With jobs <= 1 (or a single request) everything runs on the calling
  /// thread — no pool, bit-identical to a hand-rolled serial loop.
  [[nodiscard]] std::vector<RunResult> run(
      const std::vector<RunRequest>& requests);

  [[nodiscard]] unsigned jobs() const { return jobs_; }

 private:
  Session& session_;
  unsigned jobs_;
  ProgressFn progress_;
};

/// The worker count a `--jobs` flag at argv[i] gives, consuming its value.
/// Throws std::invalid_argument unless the value is an integer in
/// [1, 1024].
[[nodiscard]] unsigned parse_jobs(int argc, char** argv, int& i);

}  // namespace gnna::sim
