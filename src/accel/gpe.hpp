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
#include <optional>
#include <utility>
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
  Counter alloc_stalls;     // failed AGG/DNQ allocations
  std::uint64_t busy_time = 0;  // time spent executing (ClockRatio)
};

class Gpe {
 public:
  /// `agg` and `dnq` are the tile's units the GPE allocates entries in
  /// over the allocation bus; they must outlive the GPE.
  Gpe(const TileParams& params, noc::MeshNetwork& net, EndpointId ep_gpe,
      EndpointId ep_agg, EndpointId ep_dnq, const AddressMap& addr_map,
      ClockRatio ratio, Agg& agg, Dnq& dnq);

  /// Start a phase: `ds` is the dataset whose symmetrized graphs the
  /// traversal walks; `work` lists this tile's work items (global vertex
  /// ids, or graph ids for per-graph phases).
  void begin_phase(const CompiledProgram& prog, const graph::Dataset& ds,
                   const PhaseSpec& phase, std::vector<std::uint32_t> work);

  /// Run the core through NoC cycle `now`: wake the threads whose loads
  /// landed, then execute micro-actions until the core passes `now`.
  void tick(Cycle now);

  /// Earliest NoC cycle >= `now` at which tick() could change state
  /// (kNeverCycle when only a NoC delivery can wake it). Threads waiting on
  /// memory wake through the NoC, which the caller tracks.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  /// True when every action left to this GPE, until the tile's AGG or DNQ
  /// frees an entry or a load lands, is an allocation retry bound to fail:
  /// no thread is runnable, none is free with work left, and no entry has
  /// been freed since any stalled thread's allocation failed. O(1).
  [[nodiscard]] bool spinning() const;

  /// Tick a spinning GPE at each of its event cycles from `next`, its next
  /// event, up to `horizon`, before which nothing else can wake it; returns
  /// its next event from there. This is the only code that advances a GPE
  /// outside its tile's ticks, and it reads no message (below).
  /// Untraced, whenever one rotation of the stall ring (a retry by every
  /// stalled thread) leaves the scheduler as it found it, shifted by some
  /// cycles, every later rotation repeats it, and the rotations that end
  /// by `horizon` are retired at once (DESIGN.md §17). With a tracer
  /// attached every event is ticked, since a trace records every retry.
  Cycle spin(Cycle next, Cycle horizon);

  /// Replay a spinning GPE's retries before `now` through spin(), so that
  /// its state and stats read as if it had ticked at each; a GPE that is
  /// not spinning, or has no retry before `now`, is left as it is.
  /// Untraced, a spinning GPE's retries wake nothing (its tile leaves them
  /// out of its next event), so it lags until this is called: before its
  /// tile ticks, and before anything reads its state or stats. No message
  /// is read: every delivery wakes the tile, so a message waiting at the
  /// GPE's endpoint arrived at `now`, after every retry replayed.
  void catch_up(Cycle now) {
    if (spinning()) spin(next_event(ratio_.ceil_cycle(gpe_time_)), now);
  }

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
    Cycle stalled_until = 0;      // when a stalled thread may retry
    std::uint64_t stall_epoch = 0;  // frees() of both units at the failure
    std::uint64_t task_started = 0;  // gpe_time_ when the item was claimed
    std::uint64_t body_started = 0;  // gpe_time_ when the body began
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

  /// Execute micro-actions from resume_time(now) until the core passes
  /// NoC cycle `now`: tick() without waking threads whose loads landed.
  void run(Cycle now);

  /// Execute one micro-action of `t`; returns its cost in core cycles.
  std::uint32_t step(Thread& t);

  std::uint32_t step_gather_aggregate(Thread& t);
  std::uint32_t step_walk(Thread& t);
  std::uint32_t step_project(Thread& t);
  std::uint32_t step_edge_dna_aggregate(Thread& t);
  std::uint32_t step_graph_readout(Thread& t);
  /// Stages 2 and 3 of a gather or readout: the DNQ entry a projecting
  /// phase feeds its aggregate into, then the AGG entry that sums
  /// `expected_words` into it (or straight to memory at `out`). The thread
  /// reaches stage 4 holding both.
  std::uint32_t step_alloc_aggregate(Thread& t, Addr out,
                                     std::uint64_t expected_words);

  /// `t`'s load of `rows` rows of `buf` from row `first`, answered at
  /// `reply_to` with `tag`.
  void load_rows(const Thread& t, const BufferRef& buf, std::uint64_t first,
                 EndpointId reply_to, std::uint64_t tag,
                 std::uint64_t rows = 1);
  /// Load [addr, addr+bytes) into the scratchpad and block `t` until every
  /// segment has landed.
  std::uint32_t load_and_wait(Thread& t, Addr addr, std::uint64_t bytes);
  /// One of the two dependent loads that bring vertex `v`'s adjacency row
  /// into the scratchpad: its row-pointer pair when nothing is `fetched`
  /// yet, then its column indices at `edge_bytes` per edge (none for a
  /// vertex without edges).
  std::uint32_t fetch_row(Thread& t, NodeId v, std::uint32_t fetched,
                          std::uint32_t edge_bytes);

  /// Send `words` of GPE scratchpad data to a DNQ entry.
  void send_to_dnq(const Thread& t, DnqHandle h, std::uint32_t words);

  /// The allocation-bus step's outcome: keep the granted entry `h` in
  /// `slot`, or leave `t` stalled, for tick() to retry, when the
  /// scratchpad is full. The step costs cost_alloc either way.
  bool granted(Thread& t, std::optional<std::uint32_t> h,
               std::uint32_t& slot);
  /// Where an aggregate goes: into DNQ entry `h` when the phase's DNA
  /// model projects it next (`projected`), else straight to memory at
  /// `out`.
  [[nodiscard]] Dest result_dest(bool projected, DnqHandle h, Addr out) const;

  void finish_task(Thread& t);
  /// Free every thread, with no stall pending.
  void reset_threads();
  /// Move `t` to state `s`, keeping the per-state sets and counts.
  void set_state(Thread& t, Thread::State s);
  [[nodiscard]] std::uint32_t count(Thread::State s) const {
    return count_[static_cast<int>(s)];
  }
  /// Record the failed allocation that left `t` stalled in the tick of
  /// cycle `now`, with both units' frees() at `epoch`: `t` may retry 16
  /// cycles on.
  void stall(Thread& t, Cycle now, std::uint64_t epoch);
  /// The next thread to run at core time `at`, round-robin from the last
  /// one: runnable, stalled and due to retry (left stalled, for the caller
  /// to wake), or free and now claiming the next work item. -1 if none.
  [[nodiscard]] int pick_runnable(std::uint64_t at);
  /// The core time the tick of cycle `now` resumes from. A tick that finds
  /// no runnable thread leaves gpe_time_ at now + 1, so after a span of
  /// skipped idle ticks the core resumes at `now`, exactly as if every
  /// idle tick had run.
  [[nodiscard]] std::uint64_t resume_time(Cycle now) const;
  /// The scheduler's state at event cycle `at`, relative to `at`: what
  /// spin() compares across a rotation.
  struct SpinState {
    std::uint64_t lag = 0;  // at(cycle) - resume_time(cycle)
    std::size_t last_thread = 0;
    std::vector<std::uint64_t> due;
    // (thread, stalled_until - cycle) of the stalled threads: the ring in
    // wake-up order, then the due ones by index.
    std::vector<std::pair<std::uint32_t, std::int64_t>> stalled;
    bool operator==(const SpinState&) const = default;
  };
  void capture(Cycle at, SpinState& s) const;
  /// Flame path of the current phase's post-traversal body span
  /// ("task/gather", "task/walk", ...), for the profiler's rollup.
  [[nodiscard]] const char* body_span_name() const;
  /// Both units' frees: an allocation that failed at one epoch fails again
  /// while the epoch stands.
  [[nodiscard]] std::uint64_t alloc_epoch() const {
    return agg_.frees() + dnq_.frees();
  }

  [[nodiscard]] const graph::Graph& task_graph(const Thread& t) const {
    return ds_->undirected[t.graph_idx];
  }
  [[nodiscard]] NodeId global_id(const Thread& t, NodeId local) const {
    return prog_->graphs[t.graph_idx].node_offset + local;
  }
  [[nodiscard]] Addr row_addr(const BufferRef& buf, std::uint64_t row) const {
    return prog_->memmap.addr(buf.region, row * buf.width_words * kWordBytes);
  }
  [[nodiscard]] std::uint64_t index_of(const Thread& t) const {
    return static_cast<std::uint64_t>(&t - threads_.data());
  }

  TileParams params_;
  noc::MeshNetwork& net_;
  EndpointId ep_gpe_;
  EndpointId ep_agg_;
  EndpointId ep_dnq_;
  const AddressMap& addr_map_;
  ClockRatio ratio_;
  Agg& agg_;
  Dnq& dnq_;

  const CompiledProgram* prog_ = nullptr;
  const graph::Dataset* ds_ = nullptr;
  const PhaseSpec* phase_ = nullptr;
  PhaseFootprint fp_;  // the phase's allocation widths
  std::vector<std::uint32_t> work_;
  std::size_t next_work_ = 0;

  std::vector<Thread> threads_;
  std::size_t last_thread_ = 0;
  // The scheduler's view of threads_, so that no step scans it. One bit
  // per thread, in 64-bit words: the threads in each state, and the
  // stalled threads already due to retry. Stalled threads wake in the
  // order they stalled, since each retries 16 cycles after its tick, so a
  // ring of the stalled threads not yet due holds them by wake-up time.
  std::array<std::vector<std::uint64_t>, 4> in_state_;
  std::array<std::uint32_t, 4> count_{};  // threads in each state
  std::vector<std::uint64_t> due_;
  std::uint32_t count_due_ = 0;
  std::vector<std::uint32_t> stall_ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_tail_ = 0;
  std::size_t ring_size_ = 0;
  // Stalled threads whose stall_epoch is `doomed_epoch_`, the epoch of
  // the latest stall: all of them are doomed once no entry has been
  // freed since then.
  std::uint64_t doomed_epoch_ = 0;
  std::uint32_t count_doomed_ = 0;
  std::uint64_t gpe_time_ = 0;  // the core's time (ClockRatio)
  SpinState spin_from_, spin_to_;  // spin()'s buffers
  GpeStats stats_;
  trace::Tracer tracer_;
};

}  // namespace gnna::accel
