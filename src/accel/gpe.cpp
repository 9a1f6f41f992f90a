#include "accel/gpe.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gnna::accel {

Gpe::Gpe(const TileParams& params, noc::MeshNetwork& net, EndpointId ep_gpe,
         EndpointId ep_agg, EndpointId ep_dnq, const AddressMap& addr_map,
         double core_scale)
    : params_(params),
      net_(net),
      ep_gpe_(ep_gpe),
      ep_agg_(ep_agg),
      ep_dnq_(ep_dnq),
      addr_map_(addr_map),
      scale_(core_scale) {
  threads_.resize(params.gpe_threads);
}

void Gpe::begin_phase(const CompiledProgram& prog, const graph::Dataset& ds,
                      const PhaseSpec& phase,
                      std::vector<std::uint32_t> work) {
  assert(idle() && "begin_phase on a busy GPE");
  prog_ = &prog;
  ds_ = &ds;
  phase_ = &phase;
  fp_ = phase_footprint(phase, params_);
  work_ = std::move(work);
  next_work_ = 0;
  for (auto& t : threads_) t = Thread{};
  gpe_time_ = static_cast<double>(net_.now());
}

bool Gpe::idle() const {
  if (next_work_ < work_.size()) return false;
  for (const auto& t : threads_) {
    if (t.state != Thread::State::kFree) return false;
  }
  return true;
}

std::uint32_t Gpe::issue_load(Addr addr, std::uint64_t bytes,
                              EndpointId reply_to, std::uint64_t tag,
                              std::uint32_t owner) {
  std::uint32_t segments = 0;
  addr_map_.for_each_segment(
      addr, bytes, [&](EndpointId mem_ep, Addr a, std::uint64_t seg) {
        noc::Message m;
        m.src = ep_gpe_;
        m.dst = mem_ep;
        m.reply_to = reply_to;
        m.kind = noc::MsgKind::kMemReadReq;
        m.payload_bytes = 0;  // request header: one flit
        m.owner = owner;
        m.a = a;
        m.b = seg;
        m.c = tag;
        net_.send(m);
        ++segments;
      });
  stats_.loads_issued.add();
  stats_.load_segments.add(segments);
  return segments;
}

void Gpe::send_to_dnq(DnqHandle h, std::uint32_t words, std::uint32_t owner) {
  noc::Message m;
  m.src = ep_gpe_;
  m.dst = ep_dnq_;
  m.kind = noc::MsgKind::kDnqWrite;
  m.payload_bytes = words * kWordBytes;
  m.owner = owner;
  m.a = h;
  net_.send(m);
}

const char* Gpe::body_span_name() const {
  const PhaseSpec& ph = *phase_;
  if (ph.per_graph) return "task/readout";
  switch (ph.kind) {
    case PhaseKind::kGatherAggregate:
      return ph.walk_len > 1 ? "task/walk" : "task/gather";
    case PhaseKind::kProject:
      return "task/project";
    case PhaseKind::kEdgeDnaAggregate:
      return "task/edges";
  }
  return "task/body";
}

void Gpe::finish_task(Thread& t) {
  t.state = Thread::State::kFree;
  stats_.tasks_completed.add();
  if (tracer_.enabled()) {
    const auto ti = static_cast<std::uint64_t>(&t - threads_.data());
    // Flame sub-span: body of the task ('/' nesting under "task"). The gap
    // between traverse and body spans is memory wait, surfaced by the
    // profiler as the task's self time.
    tracer_.complete(body_span_name(), t.body_started,
                     gpe_time_ - t.body_started, t.work, ti);
    tracer_.complete("task", t.task_started, gpe_time_ - t.task_started,
                     t.work, ti);
  }
}

void Gpe::stall(Thread& t) {
  t.state = Thread::State::kStalled;
  t.stalled_until = static_cast<double>(net_.now()) + 16.0;
  stats_.alloc_stalls.add();
  if (tracer_.enabled()) {
    tracer_.instant_at("alloc_stall", gpe_time_,
                       static_cast<std::uint64_t>(&t - threads_.data()),
                       t.work);
  }
}

int Gpe::pick_runnable(double now) {
  const std::size_t n = threads_.size();
  for (std::size_t off = 1; off <= n; ++off) {
    const std::size_t i = (last_thread_ + off) % n;
    Thread& t = threads_[i];
    if (t.state == Thread::State::kStalled && t.stalled_until <= now) {
      t.state = Thread::State::kRunnable;
    }
    if (t.state == Thread::State::kRunnable) return static_cast<int>(i);
    if (t.state == Thread::State::kFree && next_work_ < work_.size()) {
      // Claim the next work item and start its vertex program.
      t = Thread{};
      t.state = Thread::State::kRunnable;
      t.work = work_[next_work_++];
      t.task_started = now;
      t.body_started = now;  // overwritten when a traversal prologue ends
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Gpe::dump_state(std::ostream& os) const {
  const auto thread_state_name = [](Thread::State s) {
    switch (s) {
      case Thread::State::kFree: return "free";
      case Thread::State::kRunnable: return "runnable";
      case Thread::State::kWaitMem: return "wait_mem";
      case Thread::State::kStalled: return "stalled";
    }
    return "?";
  };
  os << "    gpe: work=" << next_work_ << '/' << work_.size()
     << " dispatched, gpe_time=" << resume_time() << '\n';
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const Thread& t = threads_[i];
    if (t.state == Thread::State::kFree) continue;
    os << "      thread " << i << ": " << thread_state_name(t.state)
       << " work=" << t.work << " stage=" << t.stage << " loop_i="
       << t.loop_i << " pending_responses=" << t.pending_responses;
    if (t.state == Thread::State::kStalled) {
      os << " stalled_until=" << t.stalled_until;
    }
    os << '\n';
  }
}

double Gpe::resume_time() const {
  const auto now = static_cast<double>(net_.now());
  return gpe_time_ <= now - 1.0 ? now : gpe_time_;
}

Cycle Gpe::next_event(Cycle now) const {
  const auto core_free = static_cast<Cycle>(std::ceil(gpe_time_));
  if (core_free > now) return core_free;
  Cycle t = kNeverCycle;
  for (const Thread& th : threads_) {
    switch (th.state) {
      case Thread::State::kRunnable:
        return now;
      case Thread::State::kFree:
        if (next_work_ < work_.size()) return now;
        break;
      case Thread::State::kStalled:
        t = std::min(t, static_cast<Cycle>(std::ceil(th.stalled_until)));
        break;
      case Thread::State::kWaitMem:
        break;
    }
  }
  return t == kNeverCycle ? t : std::max(t, now);
}

void Gpe::tick(Agg& agg, Dnq& dnq) {
  const auto now = static_cast<double>(net_.now());
  gpe_time_ = resume_time();

  // Wake threads whose blocking loads completed (flit buffer -> scratchpad
  // happens without core intervention; the wake is free).
  while (auto m = net_.poll(ep_gpe_)) {
    assert(m->kind == noc::MsgKind::kMemReadResp);
    const auto ti = static_cast<std::size_t>(m->c);
    assert(ti < threads_.size());
    Thread& t = threads_[ti];
    assert(t.state == Thread::State::kWaitMem && t.pending_responses > 0);
    if (--t.pending_responses == 0) t.state = Thread::State::kRunnable;
  }

  // Single-threaded core: execute micro-actions until we catch up with the
  // NoC clock.
  while (gpe_time_ <= now) {
    const int ti = pick_runnable(gpe_time_);
    if (ti < 0) {
      gpe_time_ = now + 1.0;  // idle this cycle
      return;
    }
    double cost = 0.0;
    if (static_cast<std::size_t>(ti) != last_thread_) {
      cost += params_.cost_context_switch;
      stats_.context_switches.add();
      if (tracer_.enabled()) {
        tracer_.instant_at("switch", gpe_time_,
                           static_cast<std::uint64_t>(ti),
                           threads_[static_cast<std::size_t>(ti)].work);
      }
    }
    last_thread_ = static_cast<std::size_t>(ti);
    cost += step(threads_[last_thread_], agg, dnq);
    stats_.actions.add();
    gpe_time_ += cost * scale_;
    stats_.busy_cycles += cost * scale_;
  }
}

double Gpe::step(Thread& t, Agg& agg, Dnq& dnq) {
  const PhaseSpec& ph = *phase_;

  if (ph.per_graph) return step_graph_readout(t, agg, dnq);

  // Common prologue: traversal of the vertex's adjacency row.
  if (t.stage == 0) {
    // Bind the task to its graph and issue the row-pointer pair load.
    t.graph_idx = prog_->graph_of(t.work);
    const GraphLayout& gl = prog_->graphs[t.graph_idx];
    t.local_v = t.work - gl.node_offset;
    const Addr a = prog_->memmap.addr(gl.row_ptr,
                                      std::uint64_t{t.local_v} * kWordBytes);
    t.pending_responses = issue_load(a, 2 * kWordBytes, ep_gpe_,
                                     static_cast<std::uint64_t>(
                                         &t - threads_.data()),
                                     t.work);
    t.state = Thread::State::kWaitMem;
    t.stage = 1;
    return params_.cost_issue_load;
  }
  if (t.stage == 1) {
    const graph::Graph& g = task_graph(t);
    const std::uint32_t deg = g.out_degree(t.local_v);
    t.n_contrib = deg + (ph.include_self ? 1 : 0);
    t.stage = 2;
    if (tracer_.enabled()) {
      tracer_.complete("task/traverse", t.task_started,
                       gpe_time_ - t.task_started, t.work,
                       static_cast<std::uint64_t>(&t - threads_.data()));
    }
    t.body_started = gpe_time_;
    if (deg == 0) return params_.cost_loop_iter;
    const GraphLayout& gl = prog_->graphs[t.graph_idx];
    const Addr a = prog_->memmap.addr(
        gl.col_idx, std::uint64_t{g.edge_index(t.local_v, 0)} * 2 * kWordBytes);
    const std::uint64_t bytes =
        std::uint64_t{deg} * (ph.weighted_edges ? 2 * kWordBytes : kWordBytes);
    t.pending_responses = issue_load(a, bytes, ep_gpe_,
                                     static_cast<std::uint64_t>(
                                         &t - threads_.data()),
                                     t.work);
    t.state = Thread::State::kWaitMem;
    return params_.cost_issue_load;
  }

  switch (ph.kind) {
    case PhaseKind::kGatherAggregate:
      return step_gather_aggregate(t, agg, dnq);
    case PhaseKind::kProject:
      return step_project(t, dnq);
    case PhaseKind::kEdgeDnaAggregate:
      return step_edge_dna_aggregate(t, agg, dnq);
  }
  assert(false);
  return 1.0;
}

double Gpe::step_gather_aggregate(Thread& t, Agg& agg, Dnq& dnq) {
  const PhaseSpec& ph = *phase_;
  const Addr out_addr = vertex_addr(ph.output, t.work);

  if (t.stage == 2) {  // allocate the DNQ entry (if the phase projects)
    if (!ph.has_dna()) {
      t.stage = 3;
      return params_.cost_loop_iter;
    }
    Dest dest;
    dest.kind = Dest::Kind::kMemWrite;
    dest.addr = out_addr;
    auto h = dnq.allocate(0, fp_.dnq0_entry_words, dest, t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.cur_dnq0_h = *h;
    t.stage = 3;
    return params_.cost_alloc;
  }
  if (t.stage == 3) {  // allocate the AGG entry
    Dest dest;
    if (ph.has_dna()) {
      dest.kind = Dest::Kind::kDnqEntry;
      dest.ep = ep_dnq_;
      dest.handle = t.cur_dnq0_h;
    } else {
      dest.kind = Dest::Kind::kMemWrite;
      dest.addr = out_addr;
    }
    // Multi-hop phases know their contribution count from the walk tree;
    // plain gathers contribute once per neighbor (+ self).
    const std::uint64_t contribs =
        ph.walk_len > 1 ? ph.expected_contribs[t.work] : t.n_contrib;
    auto h = agg.allocate(fp_.agg_entry_words,
                          contribs * fp_.agg_entry_words, ph.agg_op, dest,
                          t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.agg_h = *h;
    t.stage = 4;
    t.loop_i = 0;
    if (ph.walk_len > 1) {
      // Root frame: its row was fetched by the prologue.
      t.walk_depth = 1;
      t.walk[0] = WalkFrame{t.local_v, 0, 2};
    }
    return params_.cost_alloc;
  }
  if (ph.walk_len > 1) return step_walk(t);
  // Stage 4: gather loop — one indirect load per contribution.
  if (t.loop_i >= t.n_contrib) {
    finish_task(t);
    return params_.cost_loop_iter;
  }
  const graph::Graph& g = task_graph(t);
  const std::uint32_t deg = g.out_degree(t.local_v);
  const NodeId u_local =
      t.loop_i < deg ? g.neighbors(t.local_v)[t.loop_i] : t.local_v;
  const NodeId u_global =
      prog_->graphs[t.graph_idx].node_offset + u_local;
  issue_load(vertex_addr(ph.gather, u_global),
             std::uint64_t{ph.gather.width_words} * kWordBytes, ep_agg_,
             t.agg_h, t.work);
  ++t.loop_i;
  if (t.loop_i >= t.n_contrib) finish_task(t);
  return params_.cost_loop_iter + params_.cost_issue_load;
}

double Gpe::step_walk(Thread& t) {
  // Depth-first enumeration of all walks of length walk_len from the task
  // vertex. Expanding an interior vertex requires its adjacency row —
  // two *dependent* memory round trips (row pointers, then column
  // indices) that the thread blocks on; walk endpoints are gathered with
  // indirect loads routed straight to the AGG entry.
  const PhaseSpec& ph = *phase_;
  const graph::Graph& g = task_graph(t);
  const GraphLayout& gl = prog_->graphs[t.graph_idx];
  const auto thread_tag =
      static_cast<std::uint64_t>(&t - threads_.data());

  WalkFrame& f = t.walk[t.walk_depth - 1];
  if (f.row_state == 0) {  // fetch row pointers of this interior vertex
    f.row_state = 1;
    const Addr a =
        prog_->memmap.addr(gl.row_ptr, std::uint64_t{f.node} * kWordBytes);
    t.pending_responses =
        issue_load(a, 2 * kWordBytes, ep_gpe_, thread_tag, t.work);
    t.state = Thread::State::kWaitMem;
    return params_.cost_issue_load;
  }
  if (f.row_state == 1) {  // fetch column indices (dependent on row ptrs)
    f.row_state = 2;
    const std::uint32_t deg = g.out_degree(f.node);
    if (deg == 0) return params_.cost_loop_iter;
    const Addr a = prog_->memmap.addr(
        gl.col_idx, std::uint64_t{g.edge_index(f.node, 0)} * 2 * kWordBytes);
    t.pending_responses = issue_load(a, std::uint64_t{deg} * kWordBytes,
                                     ep_gpe_, thread_tag, t.work);
    t.state = Thread::State::kWaitMem;
    return params_.cost_issue_load;
  }

  // Row resident: visit the next child.
  const std::uint32_t deg = g.out_degree(f.node);
  if (f.next_child >= deg) {  // subtree done
    --t.walk_depth;
    if (t.walk_depth == 0) finish_task(t);
    return params_.cost_loop_iter;
  }
  const NodeId w = g.neighbors(f.node)[f.next_child++];
  if (t.walk_depth == ph.walk_len) {  // endpoint: gather its vector
    const NodeId w_global = gl.node_offset + w;
    issue_load(vertex_addr(ph.gather, w_global),
               std::uint64_t{ph.gather.width_words} * kWordBytes, ep_agg_,
               t.agg_h, t.work);
    return params_.cost_loop_iter + params_.cost_issue_load;
  }
  // Interior: descend.
  t.walk[t.walk_depth++] = WalkFrame{w, 0, 0};
  return params_.cost_loop_iter;
}

double Gpe::step_project(Thread& t, Dnq& dnq) {
  const PhaseSpec& ph = *phase_;
  if (t.stage == 2) {  // allocate the DNQ entry
    Dest dest;
    dest.kind = Dest::Kind::kMemWrite;
    dest.addr = vertex_addr(ph.output, t.work);
    auto h = dnq.allocate(0, fp_.dnq0_entry_words, dest, t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.cur_dnq0_h = *h;
    t.stage = 3;
    t.loop_i = 0;
    return params_.cost_alloc;
  }
  // Stage 3: one load per input buffer.
  const BufferRef& b = ph.extra_inputs[t.loop_i];
  issue_load(vertex_addr(b, t.work),
             std::uint64_t{b.width_words} * kWordBytes, ep_dnq_,
             t.cur_dnq0_h, t.work);
  ++t.loop_i;
  if (t.loop_i >= ph.extra_inputs.size()) finish_task(t);
  return params_.cost_loop_iter + params_.cost_issue_load;
}

double Gpe::step_edge_dna_aggregate(Thread& t, Agg& agg, Dnq& dnq) {
  const PhaseSpec& ph = *phase_;
  const Addr out_addr = vertex_addr(ph.output, t.work);
  const bool needs_own =
      ph.gpe_words_per_entry > 0 || ph.dna2_gpe_words > 0;

  if (t.stage == 2) {  // fetch the vertex's own vector into the scratchpad
    t.stage = 3;
    if (!needs_own) return params_.cost_loop_iter;
    t.pending_responses = issue_load(
        vertex_addr(ph.gather, t.work),
        std::uint64_t{ph.gather.width_words} * kWordBytes, ep_gpe_,
        static_cast<std::uint64_t>(&t - threads_.data()), t.work);
    t.state = Thread::State::kWaitMem;
    return params_.cost_issue_load;
  }
  if (t.stage == 3) {  // allocate the virtual-queue-1 entry (GRU etc.)
    if (!ph.has_dna2()) {
      t.stage = 4;
      return params_.cost_loop_iter;
    }
    Dest dest;
    dest.kind = Dest::Kind::kMemWrite;
    dest.addr = out_addr;
    auto h = dnq.allocate(1, fp_.dnq1_entry_words, dest, t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.dnq1_h = *h;
    t.stage = 4;
    return params_.cost_alloc;
  }
  if (t.stage == 4) {  // allocate the AGG entry
    Dest dest;
    if (ph.has_dna2()) {
      dest.kind = Dest::Kind::kDnqEntry;
      dest.ep = ep_dnq_;
      dest.handle = t.dnq1_h;
    } else {
      dest.kind = Dest::Kind::kMemWrite;
      dest.addr = out_addr;
    }
    auto h = agg.allocate(fp_.agg_entry_words,
                          std::uint64_t{t.n_contrib} * fp_.agg_entry_words,
                          ph.agg_op, dest, t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.agg_h = *h;
    t.stage = 5;
    return params_.cost_alloc;
  }
  if (t.stage == 5) {  // copy h_v into the queue-1 entry
    t.stage = 6;
    t.loop_i = 0;
    t.loop_sub = 0;
    if (!ph.has_dna2() || ph.dna2_gpe_words == 0) {
      if (t.n_contrib == 0) finish_task(t);
      return params_.cost_loop_iter;
    }
    send_to_dnq(t.dnq1_h, ph.dna2_gpe_words, t.work);
    if (t.n_contrib == 0) finish_task(t);
    return params_.cost_send;
  }

  // Stage 6: per-edge loop; each iteration allocates a queue-0 entry and
  // feeds it (loads + GPE copy).
  const graph::Graph& g = task_graph(t);
  const std::uint32_t deg = g.out_degree(t.local_v);
  const bool is_self = t.loop_i >= deg;
  assert(!(is_self && !ph.extra_inputs.empty() && ph.extra_inputs_per_edge) &&
         "self contribution cannot carry per-edge inputs");

  if (t.loop_sub == 0) {  // allocate queue-0 entry
    Dest dest;
    dest.kind = Dest::Kind::kAggEntry;
    dest.ep = ep_agg_;
    dest.handle = t.agg_h;
    auto h = dnq.allocate(0, fp_.dnq0_entry_words, dest, t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.cur_dnq0_h = *h;
    t.loop_sub = 1;
    return params_.cost_alloc;
  }
  if (t.loop_sub == 1) {  // load the neighbor vector
    const NodeId u_local =
        is_self ? t.local_v : g.neighbors(t.local_v)[t.loop_i];
    const NodeId u_global =
        prog_->graphs[t.graph_idx].node_offset + u_local;
    issue_load(vertex_addr(ph.gather, u_global),
               std::uint64_t{ph.gather.width_words} * kWordBytes, ep_dnq_,
               t.cur_dnq0_h, t.work);
    t.loop_sub = 2;
    return params_.cost_loop_iter + params_.cost_issue_load;
  }
  if (t.loop_sub == 2 && !ph.extra_inputs.empty()) {  // per-edge extras
    const BufferRef& b = ph.extra_inputs.front();
    std::uint64_t index;
    if (ph.extra_inputs_per_edge) {
      index = std::uint64_t{prog_->graphs[t.graph_idx].edge_offset} +
              g.edge_index(t.local_v, t.loop_i);
    } else {
      index = t.work;
    }
    issue_load(prog_->memmap.addr(b.region,
                                  index * b.width_words * kWordBytes),
               std::uint64_t{b.width_words} * kWordBytes, ep_dnq_,
               t.cur_dnq0_h, t.work);
    t.loop_sub = 3;
    return params_.cost_loop_iter + params_.cost_issue_load;
  }
  // Final sub-step: GPE copy of p_v / advance to next edge.
  if (ph.gpe_words_per_entry > 0) {
    send_to_dnq(t.cur_dnq0_h, ph.gpe_words_per_entry, t.work);
  }
  ++t.loop_i;
  t.loop_sub = 0;
  if (t.loop_i >= t.n_contrib) finish_task(t);
  return ph.gpe_words_per_entry > 0 ? params_.cost_send
                                    : params_.cost_loop_iter;
}

double Gpe::step_graph_readout(Thread& t, Agg& agg, Dnq& dnq) {
  const PhaseSpec& ph = *phase_;
  // Work item = graph index. Stage 0: bind; no traversal needed — the
  // graph's vertex block is contiguous in the gather buffer.
  if (t.stage == 0) {
    t.graph_idx = t.work;
    t.n_contrib = prog_->graphs[t.graph_idx].num_nodes;
    t.stage = 2;
    return params_.cost_loop_iter;
  }
  const Addr out_addr = prog_->memmap.addr(
      ph.output.region,
      std::uint64_t{t.work} * ph.output.width_words * kWordBytes);
  if (t.stage == 2) {  // DNQ entry for the pooled vector
    if (!ph.has_dna()) {
      t.stage = 3;
      return params_.cost_loop_iter;
    }
    Dest dest;
    dest.kind = Dest::Kind::kMemWrite;
    dest.addr = out_addr;
    auto h = dnq.allocate(0, fp_.dnq0_entry_words, dest, t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.cur_dnq0_h = *h;
    t.stage = 3;
    return params_.cost_alloc;
  }
  if (t.stage == 3) {  // AGG entry summing the whole block
    Dest dest;
    if (ph.has_dna()) {
      dest.kind = Dest::Kind::kDnqEntry;
      dest.ep = ep_dnq_;
      dest.handle = t.cur_dnq0_h;
    } else {
      dest.kind = Dest::Kind::kMemWrite;
      dest.addr = out_addr;
    }
    auto h = agg.allocate(
        fp_.agg_entry_words,
        std::uint64_t{t.n_contrib} * ph.gather.width_words, ph.agg_op, dest,
        t.work);
    if (!h.has_value()) {
      stall(t);
      return params_.cost_alloc;
    }
    t.agg_h = *h;
    t.stage = 4;
    return params_.cost_alloc;
  }
  // Stage 4: one wide load of the graph's contiguous state block.
  const NodeId first_global = prog_->graphs[t.graph_idx].node_offset;
  issue_load(vertex_addr(ph.gather, first_global),
             std::uint64_t{t.n_contrib} * ph.gather.width_words * kWordBytes,
             ep_agg_, t.agg_h, t.work);
  finish_task(t);
  return params_.cost_issue_load;
}

}  // namespace gnna::accel
