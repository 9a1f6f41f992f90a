#include "sim/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/options.hpp"

namespace gnna::sim {

BatchRunner::BatchRunner(Session& session, unsigned jobs)
    : session_(session), jobs_(jobs) {
  if (jobs_ == 0) {
    jobs_ = std::thread::hardware_concurrency();
    if (jobs_ == 0) jobs_ = 1;
  }
}

std::vector<RunResult> BatchRunner::run(
    const std::vector<RunRequest>& requests) {
  std::vector<RunResult> results(requests.size());

  std::mutex progress_mu;
  const auto run_one = [&](std::size_t i) {
    RunResult& out = results[i];
    try {
      out.stats = session_.run(requests[i]);
    } catch (const std::exception& e) {
      out.error = e.what();
      if (out.error.empty()) out.error = "unknown error";
    }
    if (progress_) {
      std::lock_guard<std::mutex> lock(progress_mu);
      progress_(i, out);
    }
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, requests.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) run_one(i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        run_one(i);
      }
    });
  }
  for (auto& t : pool) t.join();
  return results;
}

unsigned parse_jobs(int argc, char** argv, int& i) {
  const std::string v = i + 1 < argc ? argv[++i] : "";
  const auto n = parse_u64(v);
  if (!n || *n < 1 || *n > 1024) {
    throw std::invalid_argument(
        "--jobs needs a count in [1, 1024], got '" + v + "'");
  }
  return static_cast<unsigned>(*n);
}

}  // namespace gnna::sim
