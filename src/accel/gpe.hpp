// The Graph Processing Element (GPE) — Fig 4.
//
// "At a high level, the GPE functions as a control core, coordinating other
//  elements on the system. The GPE consists of a general purpose CPU which
//  executes a lightweight runtime. The runtime manages a pool of software
//  threads and schedules them according to system load. ... The interface
//  to main memory is specialized to allow the GPE to issue indirect
//  asynchronous memory requests. ... Whenever a memory load is requested,
//  the system issues a non-blocking memory request ... The GPE then
//  performs a software context switch to another thread. Since all program
//  state is stored in the scratchpad, these context switches can be
//  performed inexpensively ... in a single cycle."  (Sections III-IV)
//
// Timing model (Section V): an event-driven single-threaded core where each
// ALU op / memory issue / IO op costs one core cycle; steps are interleaved
// with nondeterministic-latency communication handled by the NoC and memory
// models. Each software thread runs the phase's vertex program for one work
// item (vertex, or graph for readout phases).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "accel/addrmap.hpp"
#include "accel/agg.hpp"
#include "accel/config.hpp"
#include "accel/dnq.hpp"
#include "accel/program.hpp"
#include "common/stats.hpp"
#include "graph/dataset.hpp"
#include "noc/network.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

struct GpeStats {
  Counter actions;          // micro-ops executed
  Counter tasks_completed;  // vertex programs retired
  Counter loads_issued;     // logical memory loads
  Counter load_segments;    // NoC request messages (after page splits)
  Counter alloc_stalls;     // failed AGG/DNQ allocations
  Counter context_switches;
  double busy_cycles = 0.0;  // NoC cycles spent executing
};

class Gpe {
 public:
  Gpe(const TileParams& params, noc::MeshNetwork& net, EndpointId ep_gpe,
      EndpointId ep_agg, EndpointId ep_dnq, const AddressMap& addr_map,
      double core_scale);

  /// Start a phase: `ds` is the dataset whose symmetrized graphs the
  /// traversal walks; `work` lists this tile's work items (global vertex
  /// ids, or graph ids for per-graph phases).
  void begin_phase(const CompiledProgram& prog, const graph::Dataset& ds,
                   const PhaseSpec& phase, std::vector<std::uint32_t> work);

  void tick(Agg& agg, Dnq& dnq);

  /// Earliest NoC cycle >= `now` at which tick() could change state
  /// (kNeverCycle when only a NoC delivery can wake it). Threads waiting on
  /// memory wake through the NoC, which the caller tracks.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] bool idle() const;
  [[nodiscard]] const GpeStats& stats() const { return stats_; }

  /// Attach an event tracer (thread switches, task lifetimes, alloc
  /// stalls). Disabled by default.
  void set_tracer(trace::Tracer t) { tracer_ = t; }

  /// Deadlock diagnostics: work-queue progress and non-free thread states.
  void dump_state(std::ostream& os) const;

 private:
  /// One level of a multi-hop walk (PGNN): the vertex being expanded, the
  /// next child to visit, and how much of its adjacency row has been
  /// fetched (0 = nothing, 1 = row pointers in flight, 2 = row resident).
  struct WalkFrame {
    NodeId node = 0;
    std::uint32_t next_child = 0;
    std::uint8_t row_state = 0;
  };

  struct Thread {
    enum class State : std::uint8_t { kFree, kRunnable, kWaitMem, kStalled };
    State state = State::kFree;
    std::uint32_t work = 0;
    std::uint32_t stage = 0;
    std::uint32_t loop_i = 0;
    std::uint32_t loop_sub = 0;
    std::uint32_t pending_responses = 0;
    double stalled_until = 0.0;
    double task_started = 0.0;  // gpe_time_ when the work item was claimed
    double body_started = 0.0;  // gpe_time_ when the post-traversal body began
    // Cached task context:
    std::size_t graph_idx = 0;
    NodeId local_v = 0;
    std::uint32_t n_contrib = 0;
    AggHandle agg_h = 0;
    DnqHandle dnq1_h = 0;
    DnqHandle cur_dnq0_h = 0;
    // Multi-hop traversal state (walk_len > 1).
    std::array<WalkFrame, 9> walk{};
    std::uint32_t walk_depth = 0;
  };

  /// Execute one micro-action of `t`; returns its cost in core cycles.
  double step(Thread& t, Agg& agg, Dnq& dnq);

  double step_gather_aggregate(Thread& t, Agg& agg, Dnq& dnq);
  double step_walk(Thread& t);
  double step_project(Thread& t, Dnq& dnq);
  double step_edge_dna_aggregate(Thread& t, Agg& agg, Dnq& dnq);
  double step_graph_readout(Thread& t, Agg& agg, Dnq& dnq);

  /// Issue a logical load of [addr, addr+bytes) whose response(s) go to
  /// `reply_to` tagged `tag`, on behalf of work item `owner` (attribution
  /// only). Returns the number of request messages sent.
  std::uint32_t issue_load(Addr addr, std::uint64_t bytes,
                           EndpointId reply_to, std::uint64_t tag,
                           std::uint32_t owner);

  /// Send `words` of GPE scratchpad data to a DNQ entry.
  void send_to_dnq(DnqHandle h, std::uint32_t words, std::uint32_t owner);

  void finish_task(Thread& t);
  void stall(Thread& t);
  [[nodiscard]] int pick_runnable(double now);
  /// The core time the next tick resumes from. A tick that finds no
  /// runnable thread leaves gpe_time_ at now + 1, so after a span of
  /// skipped idle ticks the core resumes at `now`, exactly as if every
  /// idle tick had run.
  [[nodiscard]] double resume_time() const;
  /// Flame path of the current phase's post-traversal body span
  /// ("task/gather", "task/walk", ...), for the profiler's rollup.
  [[nodiscard]] const char* body_span_name() const;

  [[nodiscard]] const graph::Graph& task_graph(const Thread& t) const {
    return ds_->undirected[t.graph_idx];
  }
  [[nodiscard]] Addr vertex_addr(const BufferRef& buf, NodeId global_v) const {
    return prog_->memmap.addr(buf.region, std::uint64_t{global_v} *
                                              buf.width_words * kWordBytes);
  }

  TileParams params_;
  noc::MeshNetwork& net_;
  EndpointId ep_gpe_;
  EndpointId ep_agg_;
  EndpointId ep_dnq_;
  const AddressMap& addr_map_;
  double scale_;

  const CompiledProgram* prog_ = nullptr;
  const graph::Dataset* ds_ = nullptr;
  const PhaseSpec* phase_ = nullptr;
  std::vector<std::uint32_t> work_;
  std::size_t next_work_ = 0;

  std::vector<Thread> threads_;
  std::size_t last_thread_ = 0;
  double gpe_time_ = 0.0;
  GpeStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::accel
