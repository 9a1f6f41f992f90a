#include "sim/session.hpp"

#include <stdexcept>
#include <utility>

#include "accel/compiler.hpp"
#include "accel/ir.hpp"
#include "accel/opt.hpp"
#include "sim/stats_json.hpp"

namespace gnna::sim {

std::shared_ptr<const graph::Dataset> Session::dataset(graph::DatasetId id,
                                                       std::uint64_t seed) {
  return datasets_.get(id, seed);
}

Session::Resolved Session::compile(
    const gnn::ModelSpec& model,
    std::shared_ptr<const graph::Dataset> dataset) {
  if (!dataset) {
    throw std::invalid_argument("Session::compile: null dataset");
  }
  Resolved r;
  r.dataset = std::move(dataset);
  r.program = std::make_shared<const accel::CompiledProgram>(
      accel::ProgramCompiler{}.compile(model, *r.dataset));
  r.hash = accel::ir::content_hash(*r.program);
  r.source = "adhoc";
  return r;
}

Session::Resolved Session::resolve(const RunRequest& req) {
  Resolved base = resolve_base(req);
  if (!req.optimize) return base;
  return optimized(std::move(base), req);
}

Session::Resolved Session::optimized(Resolved base, const RunRequest& req) {
  accel::opt::OptimizeOptions oo;
  oo.dataset = base.dataset.get();
  oo.config = &req.config;
  accel::opt::OptimizeResult res =
      accel::opt::optimize_program(*base.program, oo);
  if (!res.validated) {
    throw std::runtime_error("Session::resolve: optimizer refused '" +
                             base.program->name + "': " + res.failure);
  }
  Resolved out;
  out.dataset = std::move(base.dataset);
  out.source = base.source + "+opt";
  out.optimized_from = base.hash;
  if (!res.changed()) {
    // Identity pipeline: the cached instance is already optimal.
    out.program = std::move(base.program);
    out.hash = base.hash;
    return out;
  }
  auto prog = std::make_shared<const accel::CompiledProgram>(
      std::move(res.program));
  const std::uint64_t h = accel::ir::content_hash(*prog);
  std::lock_guard<std::mutex> lock(mu_);
  // Optimized programs are content-hashed separately: repeated optimized
  // runs (and identical results from different sources) share one
  // instance, distinct from the unoptimized original.
  const auto it = store_.emplace(h, std::move(prog)).first;
  out.program = it->second;
  out.hash = h;
  return out;
}

Session::Resolved Session::resolve_base(const RunRequest& req) {
  if (req.program) {
    if (!req.dataset) {
      throw std::invalid_argument(
          "RunRequest: a pre-compiled program needs a dataset to run "
          "against");
    }
    return Resolved{req.dataset, req.program,
                    accel::ir::content_hash(*req.program), "given"};
  }
  if (!req.program_file.empty()) {
    std::shared_ptr<const graph::Dataset> ds = req.dataset;
    if (!ds && req.benchmark) {
      ds = dataset(gnn::benchmark_dataset(*req.benchmark), req.seed);
    }
    if (!ds) {
      throw std::invalid_argument(
          "RunRequest: program_file needs a dataset (set `dataset` or "
          "`benchmark` to derive one)");
    }
    auto prog = std::make_shared<const accel::CompiledProgram>(
        accel::ir::load_file(req.program_file));
    const std::uint64_t h = accel::ir::content_hash(*prog);
    std::lock_guard<std::mutex> lock(mu_);
    // Enter the hash store so repeated loads (and identical compiled
    // programs) share one instance; file loads keep their own provenance
    // label and don't perturb the hit/miss/dedupe counters.
    const auto it = store_.emplace(h, std::move(prog)).first;
    return Resolved{std::move(ds), it->second, h, "file"};
  }
  if (req.benchmark) {
    auto ds = dataset(gnn::benchmark_dataset(*req.benchmark), req.seed);
    const MemoKey key{*req.benchmark, req.seed};
    std::promise<std::uint64_t> compiled;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (const auto it = memo_.find(key); it != memo_.end()) {
        // Compiled, or being compiled by another thread: wait for that
        // one compile (get() rethrows its failure) and share the result.
        const std::shared_future<std::uint64_t> pending = it->second;
        lock.unlock();
        const std::uint64_t h = pending.get();
        lock.lock();
        ++program_hits_;
        return Resolved{std::move(ds), store_.at(h), h, "hit"};
      }
      memo_.emplace(key, compiled.get_future().share());
    }
    // Compile outside the lock: other keys proceed in parallel, and
    // requests for this key wait on `compiled`.
    std::shared_ptr<const accel::CompiledProgram> prog;
    try {
      prog = std::make_shared<const accel::CompiledProgram>(
          accel::ProgramCompiler{}.compile(
              gnn::make_benchmark_model(*req.benchmark), *ds));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      memo_.erase(key);  // a later request retries the compile
      compiled.set_exception(std::current_exception());
      throw;
    }
    const std::uint64_t h = accel::ir::content_hash(*prog);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = store_.emplace(h, std::move(prog));
    compiled.set_value(h);
    if (inserted) {
      ++program_misses_;
      return Resolved{std::move(ds), it->second, h, "miss"};
    }
    // An identical program (same IR text, so same behavior) was already
    // cached — typically the same benchmark under a different seed whose
    // generated topology came out identical.
    ++program_dedupes_;
    return Resolved{std::move(ds), it->second, h, "dedupe"};
  }
  if (req.model && req.dataset) {
    return compile(*req.model, req.dataset);
  }
  throw std::invalid_argument(
      "RunRequest: set a benchmark, a program, a program_file, or a "
      "(model, dataset) pair");
}

accel::RunStats Session::run(const RunRequest& req) {
  const Resolved r = resolve(req);

  accel::AcceleratorSim sim(req.effective_config(), req.partition);
  if (req.watchdog_cycles) sim.set_watchdog_cycles(*req.watchdog_cycles);
  sim.set_verify(req.verify);
  sim.set_trace(req.trace);
  if (req.partition == graph::PartitionPolicy::kProfileGuided) {
    // Rebalance from the prior run's measured per-vertex load.
    if (req.attribution_from.empty()) {
      throw std::invalid_argument(
          "RunRequest: partition=profile-guided needs attribution_from, a "
          "prior run's stats JSON with an attribution block");
    }
    sim.set_profile_loads(read_attribution(req.attribution_from)
                              ->vertex_busy(r.program->total_vertices()));
  }

  accel::RunStats rs = sim.run(*r.program, *r.dataset);
  rs.program_hash = r.hash;
  rs.program_cache = r.source;
  rs.optimized_from = r.optimized_from;
  if (req.benchmark) rs.program_name = gnn::benchmark_name(*req.benchmark);
  if (!req.label.empty()) rs.program_name = req.label;
  return rs;
}

Session::CacheCounters Session::cache_counters() const {
  CacheCounters c;
  c.dataset_hits = datasets_.hits();
  c.dataset_misses = datasets_.misses();
  std::lock_guard<std::mutex> lock(mu_);
  c.program_hits = program_hits_;
  c.program_misses = program_misses_;
  c.program_dedupes = program_dedupes_;
  return c;
}

Session& Session::global() {
  static Session session;
  return session;
}

}  // namespace gnna::sim
