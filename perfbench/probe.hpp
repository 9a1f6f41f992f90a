// Benchmark-owned observers: a trace sink that times the simulator's phases
// from outside and records what the NoC carried, and a standalone replay of
// that NoC traffic.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "trace/trace.hpp"

namespace gnna::perfbench {

/// One host-time span. The run span has parent 0; phase spans name it.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;  // steady clock
  std::int64_t end_ns = 0;
};

/// One NoC send as the traced run saw it: the cycle it was injected, the
/// endpoints, and the payload size.
struct NocSend {
  std::uint64_t cycle = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t payload_bytes = 0;
};

/// Trace sink for one simulation. Counts events per category, stamps
/// steady-clock host time at every phase marker (one span per phase, child
/// of the run span), records each NoC send for replay, and keeps the
/// packet lifetimes so the NoC's busy cycles can be computed. Not
/// thread-safe: give each concurrent simulation its own sink.
class ProbeSink final : public trace::TraceSink {
 public:
  explicit ProbeSink(std::uint64_t run_id) : run_id_(run_id) {}

  /// Bracket the whole run (call around Session::run).
  void begin_run(const std::string& name);
  void end_run();

  void complete(trace::Category cat, std::uint32_t unit, const char* name,
                double start, double dur, std::uint64_t a,
                std::uint64_t b) override;
  void instant(trace::Category cat, std::uint32_t unit, const char* name,
               double at, std::uint64_t a, std::uint64_t b) override;
  void counter(trace::Category cat, std::uint32_t unit, const char* name,
               double at, double value) override;
  void phase_begin(const char* name, double at) override;
  void phase_end(const char* name, double at) override;

  [[nodiscard]] std::uint64_t run_id() const { return run_id_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<NocSend>& sends() const { return sends_; }
  [[nodiscard]] std::uint64_t events(trace::Category cat) const {
    return events_[static_cast<std::size_t>(cat)];
  }
  /// Memory read and write requests injected into the NoC.
  [[nodiscard]] std::uint64_t mem_requests() const { return mem_requests_; }
  /// Cycles covered by at least one packet lifetime [injected, delivered).
  [[nodiscard]] std::uint64_t noc_busy_cycles() const;

 private:
  static std::int64_t now_ns();

  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::size_t open_phase_ = 0;  // index into spans_, 0 = none open
  std::array<std::uint64_t, trace::kNumCategories> events_{};
  std::vector<NocSend> sends_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> packet_lifetimes_;
  std::uint64_t mem_requests_ = 0;
};

/// Result of replaying recorded sends through a fresh network.
struct ReplayResult {
  double host_s = 0.0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flit_hops = 0;
  double avg_packet_latency = 0.0;
};

/// Replay `sends` cycle by cycle for `cycles` NoC cycles through a
/// standalone noc::MeshNetwork shaped like `cfg` (same mesh and NocParams,
/// endpoints in AcceleratorSim::build() order: three per tile, then one
/// per memory node).
[[nodiscard]] ReplayResult replay_noc(const accel::AcceleratorConfig& cfg,
                                      const std::vector<NocSend>& sends,
                                      std::uint64_t cycles);

/// Write every span of every sink as one JSON document.
void write_spans(std::ostream& os, const std::string& workload,
                 std::uint64_t seed,
                 const std::vector<const ProbeSink*>& sinks);

}  // namespace gnna::perfbench
