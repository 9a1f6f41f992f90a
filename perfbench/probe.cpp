#include "probe.hpp"

#include <algorithm>
#include <cstring>

#include "noc/network.hpp"

namespace gnna::perfbench {

std::int64_t ProbeSink::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ProbeSink::begin_run(const std::string& name) {
  spans_.clear();
  open_phase_ = 0;
  spans_.push_back({1, 0, name, now_ns(), 0});
}

void ProbeSink::end_run() {
  if (!spans_.empty()) spans_.front().end_ns = now_ns();
}

void ProbeSink::complete(trace::Category cat, std::uint32_t, const char*,
                         double start, double dur, std::uint64_t,
                         std::uint64_t) {
  ++events_[static_cast<std::size_t>(cat)];
  // The NoC emits one complete event per delivered packet, spanning its
  // time in the network.
  if (cat == trace::Category::kNoc) {
    const auto from = static_cast<std::uint64_t>(start);
    packet_lifetimes_.emplace_back(from,
                                   from + static_cast<std::uint64_t>(dur));
  }
}

void ProbeSink::instant(trace::Category cat, std::uint32_t, const char* name,
                        double at, std::uint64_t a, std::uint64_t b) {
  ++events_[static_cast<std::size_t>(cat)];
  // NoC send instants are named "send:<kind>"; `a` packs src << 32 | dst
  // and `b` is the payload size.
  if (cat != trace::Category::kNoc || std::strncmp(name, "send:", 5) != 0) {
    return;
  }
  sends_.push_back({static_cast<std::uint64_t>(at),
                    static_cast<std::uint32_t>(a >> 32),
                    static_cast<std::uint32_t>(a & 0xffffffffU),
                    static_cast<std::uint32_t>(b)});
  if (std::strcmp(name + 5, "mem_read_req") == 0 ||
      std::strcmp(name + 5, "mem_write_req") == 0) {
    ++mem_requests_;
  }
}

void ProbeSink::counter(trace::Category cat, std::uint32_t, const char*,
                        double, double) {
  ++events_[static_cast<std::size_t>(cat)];
}

void ProbeSink::phase_begin(const char* name, double) {
  if (spans_.empty()) begin_run("run");
  open_phase_ = spans_.size();
  spans_.push_back({spans_.size() + 1, spans_.front().id, name, now_ns(), 0});
}

void ProbeSink::phase_end(const char*, double) {
  if (open_phase_ == 0) return;
  spans_[open_phase_].end_ns = now_ns();
  open_phase_ = 0;
}

std::uint64_t ProbeSink::noc_busy_cycles() const {
  auto lifetimes = packet_lifetimes_;
  std::sort(lifetimes.begin(), lifetimes.end());
  std::uint64_t busy = 0;
  std::uint64_t covered_to = 0;
  for (const auto& [from, to] : lifetimes) {
    const std::uint64_t begin = std::max(from, covered_to);
    if (to > begin) busy += to - begin;
    covered_to = std::max(covered_to, to);
  }
  return busy;
}

ReplayResult replay_noc(const accel::AcceleratorConfig& cfg,
                        const std::vector<NocSend>& sends,
                        std::uint64_t cycles) {
  const auto start = std::chrono::steady_clock::now();
  noc::MeshNetwork net(cfg.mesh_width, cfg.mesh_height, cfg.noc_params);
  for (const auto& [x, y] : cfg.tile_coords) {
    for (int unit = 0; unit < 3; ++unit) (void)net.add_endpoint(x, y);
  }
  for (const auto& [x, y] : cfg.mem_coords) (void)net.add_endpoint(x, y);
  net.finalize();

  // Components send during their tick, before the network's tick in the
  // same cycle, so a send stamped with cycle c enters before tick c.
  std::size_t next = 0;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (; next < sends.size() && sends[next].cycle == c; ++next) {
      noc::Message m;
      m.src = sends[next].src;
      m.dst = sends[next].dst;
      m.payload_bytes = sends[next].payload_bytes;
      net.send(m);
    }
    net.tick();
  }
  ReplayResult r;
  r.host_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  r.packets_delivered = net.stats().packets_delivered.value();
  r.flit_hops = net.stats().flit_hops.value();
  r.avg_packet_latency = net.stats().packet_latency.mean();
  return r;
}

void write_spans(std::ostream& os, const std::string& workload,
                 std::uint64_t seed,
                 const std::vector<const ProbeSink*>& sinks) {
  os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
     << ",\"spans\":[";
  bool first = true;
  for (const ProbeSink* s : sinks) {
    for (const Span& sp : s->spans()) {
      os << (first ? "" : ",") << "\n{\"run\":" << s->run_id()
         << ",\"id\":" << sp.id << ",\"parent\":" << sp.parent
         << ",\"name\":\"" << sp.name << "\",\"start_ns\":" << sp.start_ns
         << ",\"end_ns\":" << sp.end_ns << '}';
      first = false;
    }
  }
  os << "\n]}\n";
}

}  // namespace gnna::perfbench
