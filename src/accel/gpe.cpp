#include "accel/gpe.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace gnna::accel {

namespace {

using Bits = std::vector<std::uint64_t>;

constexpr std::uint64_t bit(std::size_t i) {
  return std::uint64_t{1} << (i % 64);
}

}  // namespace

Gpe::Gpe(const TileParams& params, noc::MeshNetwork& net, EndpointId ep_gpe,
         EndpointId ep_agg, EndpointId ep_dnq, const AddressMap& addr_map,
         ClockRatio ratio, Agg& agg, Dnq& dnq)
    : params_(params),
      net_(net),
      ep_gpe_(ep_gpe),
      ep_agg_(ep_agg),
      ep_dnq_(ep_dnq),
      addr_map_(addr_map),
      ratio_(ratio),
      agg_(agg),
      dnq_(dnq) {
  threads_.resize(params.gpe_threads);
  stall_ring_.resize(threads_.size());
  reset_threads();
}

void Gpe::reset_threads() {
  for (auto& t : threads_) t = Thread{};
  const std::size_t words = (threads_.size() + 63) / 64;
  for (Bits& b : in_state_) b.assign(words, 0);
  due_.assign(words, 0);
  Bits& free = in_state_[static_cast<int>(Thread::State::kFree)];
  for (std::size_t i = 0; i < threads_.size(); ++i) free[i / 64] |= bit(i);
  count_ = {};
  count_[static_cast<int>(Thread::State::kFree)] =
      static_cast<std::uint32_t>(threads_.size());
  count_due_ = 0;
  ring_head_ = ring_tail_ = ring_size_ = 0;
  count_doomed_ = 0;
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
  reset_threads();
  gpe_time_ = ratio_.at(net_.now());
}

bool Gpe::idle() const {
  return next_work_ >= work_.size() &&
         count(Thread::State::kFree) == threads_.size();
}

void Gpe::set_state(Thread& t, Thread::State s) {
  const std::size_t i = index_of(t);
  const auto from = static_cast<int>(t.state);
  const auto to = static_cast<int>(s);
  in_state_[from][i / 64] &= ~bit(i);
  --count_[from];
  in_state_[to][i / 64] |= bit(i);
  ++count_[to];
  t.state = s;
}

void Gpe::load_rows(const Thread& t, const BufferRef& buf, std::uint64_t first,
                    EndpointId reply_to, std::uint64_t tag,
                    std::uint64_t rows) {
  send_read(net_, addr_map_, ep_gpe_, reply_to, row_addr(buf, first),
            rows * buf.width_words * std::uint64_t{kWordBytes}, tag, t.work);
}

std::uint32_t Gpe::load_and_wait(Thread& t, Addr addr, std::uint64_t bytes) {
  t.pending_responses = send_read(net_, addr_map_, ep_gpe_, ep_gpe_, addr,
                                  bytes, index_of(t), t.work);
  set_state(t, Thread::State::kWaitMem);
  return params_.cost_issue_load;
}

std::uint32_t Gpe::fetch_row(Thread& t, NodeId v, std::uint32_t fetched,
                             std::uint32_t edge_bytes) {
  const GraphLayout& gl = prog_->graphs[t.graph_idx];
  if (fetched == 0) {
    return load_and_wait(
        t, prog_->memmap.addr(gl.row_ptr, std::uint64_t{v} * kWordBytes),
        2 * kWordBytes);
  }
  const graph::Graph& g = task_graph(t);
  const std::uint32_t deg = g.out_degree(v);
  if (deg == 0) return params_.cost_loop_iter;
  return load_and_wait(
      t,
      prog_->memmap.addr(gl.col_idx,
                         std::uint64_t{g.edge_index(v, 0)} * 2 * kWordBytes),
      std::uint64_t{deg} * edge_bytes);
}

void Gpe::send_to_dnq(const Thread& t, DnqHandle h, std::uint32_t words) {
  send_result(net_, addr_map_, ep_gpe_,
              Dest{.kind = Dest::Kind::kDnqEntry, .ep = ep_dnq_, .handle = h},
              words * kWordBytes, t.work);
}

bool Gpe::granted(Thread& t, std::optional<std::uint32_t> h,
                  std::uint32_t& slot) {
  if (!h.has_value()) {
    set_state(t, Thread::State::kStalled);
    return false;
  }
  slot = *h;
  return true;
}

Dest Gpe::result_dest(bool projected, DnqHandle h, Addr out) const {
  if (projected) {
    return Dest{.kind = Dest::Kind::kDnqEntry, .ep = ep_dnq_, .handle = h};
  }
  return Dest{.kind = Dest::Kind::kMemWrite, .addr = out};
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
  set_state(t, Thread::State::kFree);
  stats_.tasks_completed.add();
  if (tracer_.enabled()) {
    const std::uint64_t ti = index_of(t);
    // Flame sub-span: body of the task ('/' nesting under "task"). The gap
    // between traverse and body spans is memory wait, surfaced by the
    // profiler as the task's self time.
    tracer_.complete(body_span_name(), ratio_.cycles(t.body_started),
                     ratio_.cycles(gpe_time_ - t.body_started), t.work, ti);
    tracer_.complete("task", ratio_.cycles(t.task_started),
                     ratio_.cycles(gpe_time_ - t.task_started), t.work, ti);
  }
}

void Gpe::stall(Thread& t, Cycle now, std::uint64_t epoch) {
  assert(t.state == Thread::State::kStalled);
  t.stalled_until = now + 16;
  t.stall_epoch = epoch;
  if (epoch != doomed_epoch_) {
    doomed_epoch_ = epoch;
    count_doomed_ = 0;
  }
  ++count_doomed_;
  stall_ring_[ring_tail_] = static_cast<std::uint32_t>(index_of(t));
  if (++ring_tail_ == stall_ring_.size()) ring_tail_ = 0;
  ++ring_size_;
  stats_.alloc_stalls.add();
  if (tracer_.enabled()) {
    tracer_.instant_at("alloc_stall", ratio_.cycles(gpe_time_), index_of(t),
                       t.work);
  }
}

int Gpe::pick_runnable(std::uint64_t at) {
  while (ring_size_ > 0 &&
         ratio_.at(threads_[stall_ring_[ring_head_]].stalled_until) <= at) {
    const std::uint32_t i = stall_ring_[ring_head_];
    due_[i / 64] |= bit(i);
    ++count_due_;
    if (++ring_head_ == stall_ring_.size()) ring_head_ = 0;
    --ring_size_;
  }
  // The first candidate at or after last_thread_ + 1, wrapping around: a
  // rotated priority encoder over the candidate mask, word by word.
  const Bits& runnable = in_state_[static_cast<int>(Thread::State::kRunnable)];
  const Bits& free = in_state_[static_cast<int>(Thread::State::kFree)];
  const std::uint64_t claimable = next_work_ < work_.size() ? ~0ULL : 0;
  const std::size_t words = due_.size();
  const std::size_t start =
      last_thread_ + 1 == threads_.size() ? 0 : last_thread_ + 1;
  const std::uint64_t from_start = ~0ULL << (start % 64);
  for (std::size_t k = 0, w = start / 64; k <= words;
       ++k, w = w + 1 == words ? 0 : w + 1) {
    std::uint64_t m = runnable[w] | due_[w] | (free[w] & claimable);
    if (k == 0) m &= from_start;
    if (k == words) m &= ~from_start;
    if (m == 0) continue;
    const std::size_t i =
        w * 64 + static_cast<std::size_t>(std::countr_zero(m));
    Thread& t = threads_[i];
    if (t.state == Thread::State::kFree) {
      // Claim the next work item and start its vertex program.
      t = Thread{};
      set_state(t, Thread::State::kRunnable);
      t.work = work_[next_work_++];
      t.task_started = at;
      t.body_started = at;  // overwritten when a traversal prologue ends
    }
    return static_cast<int>(i);
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
     << " dispatched, gpe_time=" << ratio_.format(resume_time(net_.now()))
     << '\n';
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

std::uint64_t Gpe::resume_time(Cycle now) const {
  const std::uint64_t at = ratio_.at(now);
  return gpe_time_ + ratio_.q <= at ? at : gpe_time_;
}

Cycle Gpe::next_event(Cycle now) const {
  const Cycle core_free = ratio_.ceil_cycle(gpe_time_);
  if (core_free > now) return core_free;
  if (count(Thread::State::kRunnable) > 0 || count_due_ > 0 ||
      (count(Thread::State::kFree) > 0 && next_work_ < work_.size())) {
    return now;
  }
  if (ring_size_ == 0) return kNeverCycle;
  return std::max(threads_[stall_ring_[ring_head_]].stalled_until, now);
}

bool Gpe::spinning() const {
  const std::uint32_t stalled = count(Thread::State::kStalled);
  return count(Thread::State::kRunnable) == 0 &&
         (count(Thread::State::kFree) == 0 || next_work_ >= work_.size()) &&
         stalled > 0 && count_doomed_ == stalled &&
         doomed_epoch_ == alloc_epoch();
}

void Gpe::capture(Cycle at, SpinState& s) const {
  s.lag = ratio_.at(at) - resume_time(at);
  s.last_thread = last_thread_;
  s.due = due_;
  s.stalled.clear();
  const auto add = [&](std::uint32_t i) {
    s.stalled.emplace_back(
        i, static_cast<std::int64_t>(threads_[i].stalled_until - at));
  };
  for (std::size_t k = 0, r = ring_head_; k < ring_size_; ++k) {
    add(stall_ring_[r]);
    if (++r == stall_ring_.size()) r = 0;
  }
  for (std::size_t w = 0; w < due_.size(); ++w) {
    for (std::uint64_t m = due_[w]; m != 0; m &= m - 1) {
      add(static_cast<std::uint32_t>(w * 64 + std::countr_zero(m)));
    }
  }
}

Cycle Gpe::spin(Cycle next, Cycle horizon) {
  if (tracer_.enabled()) {
    // A trace records every retry: tick each one, and retire none in
    // closed form, so no state need be captured.
    for (; next < horizon; next = next_event(next + 1)) {
      assert(spinning());
      run(next);
    }
    return next;
  }
  if (next >= horizon) return next;
  const std::uint32_t stalled = count(Thread::State::kStalled);
  Cycle from = next;
  capture(from, spin_from_);
  while (next < horizon) {
    const GpeStats before = stats_;
    while (next < horizon &&
           stats_.actions.value() < before.actions.value() + stalled) {
      assert(spinning());
      run(next);
      next = next_event(next + 1);
    }
    if (next >= horizon) break;
    capture(next, spin_to_);
    if (spin_to_ == spin_from_) {
      // The ticks from `next` on repeat those from `from`, `period` later:
      // nothing in a doomed retry reads the absolute time. Retire the k
      // rotations that end by the horizon.
      const Cycle period = next - from;
      const std::uint64_t k = (horizon - next) / period;
      for (const auto& s : spin_to_.stalled) {
        threads_[s.first].stalled_until += k * period;
      }
      gpe_time_ += ratio_.at(k * period);
      stats_.actions.add(k * (stats_.actions.value() -
                              before.actions.value()));
      stats_.alloc_stalls.add(k * (stats_.alloc_stalls.value() -
                                   before.alloc_stalls.value()));
      stats_.busy_time += k * (stats_.busy_time - before.busy_time);
      next += k * period;
    }
    // The state at `next` is spin_to_ either way: it is relative.
    std::swap(spin_from_, spin_to_);
    from = next;
  }
  return next;
}

void Gpe::tick(Cycle now) {
  // Wake threads whose blocking loads completed (flit buffer -> scratchpad
  // happens without core intervention; the wake is free).
  while (auto m = net_.poll(ep_gpe_)) {
    assert(m->kind == noc::MsgKind::kMemReadResp);
    const auto ti = static_cast<std::size_t>(m->c);
    assert(ti < threads_.size());
    Thread& t = threads_[ti];
    assert(t.state == Thread::State::kWaitMem && t.pending_responses > 0);
    if (--t.pending_responses == 0) set_state(t, Thread::State::kRunnable);
  }
  run(now);
}

void Gpe::run(Cycle now) {
  const std::uint64_t end = ratio_.at(now);
  gpe_time_ = resume_time(now);

  // Single-threaded core: execute micro-actions until we catch up with the
  // NoC clock.
  while (gpe_time_ <= end) {
    const int ti = pick_runnable(gpe_time_);
    if (ti < 0) {
      gpe_time_ = end + ratio_.q;  // idle this cycle
      return;
    }
    std::uint64_t cost = 0;
    if (static_cast<std::size_t>(ti) != last_thread_) {
      cost += params_.cost_context_switch;
      if (tracer_.enabled()) {
        tracer_.instant_at("switch", ratio_.cycles(gpe_time_),
                           static_cast<std::uint64_t>(ti),
                           threads_[static_cast<std::size_t>(ti)].work);
      }
    }
    last_thread_ = static_cast<std::size_t>(ti);
    Thread& t = threads_[last_thread_];
    const std::uint64_t epoch = alloc_epoch();
    if (t.state == Thread::State::kStalled) {  // due to retry
      due_[last_thread_ / 64] &= ~bit(last_thread_);
      --count_due_;
      if (t.stall_epoch == doomed_epoch_) --count_doomed_;
      if (t.stall_epoch != epoch) set_state(t, Thread::State::kRunnable);
    }
    if (t.state == Thread::State::kStalled) {
      // Neither unit has freed an entry since this allocation failed, so
      // it fails again: retire the retry without running it.
      cost += params_.cost_alloc;
    } else {
      cost += step(t);
    }
    if (t.state == Thread::State::kStalled) stall(t, now, epoch);
    stats_.actions.add();
    gpe_time_ += ratio_.core(cost);
    stats_.busy_time += ratio_.core(cost);
  }
}

std::uint32_t Gpe::step(Thread& t) {
  const PhaseSpec& ph = *phase_;

  if (ph.per_graph) return step_graph_readout(t);

  // Common prologue: traversal of the vertex's adjacency row.
  if (t.stage == 0) {  // bind the task to its graph
    t.graph_idx = prog_->graph_of(t.work);
    t.local_v = t.work - prog_->graphs[t.graph_idx].node_offset;
  } else if (t.stage == 1) {  // row pointers resident: the degree is known
    t.n_contrib = task_graph(t).out_degree(t.local_v) +
                  (ph.include_self ? 1 : 0);
    if (tracer_.enabled()) {
      tracer_.complete("task/traverse", ratio_.cycles(t.task_started),
                       ratio_.cycles(gpe_time_ - t.task_started), t.work,
                       index_of(t));
    }
    t.body_started = gpe_time_;
    // A walk starts at the task vertex, whose row this prologue fetches.
    if (ph.walk_len > 1) t.walk[t.walk_depth++] = WalkFrame{t.local_v, 0, 2};
  }
  if (t.stage < 2) {
    return fetch_row(t, t.local_v, t.stage++,
                     ph.weighted_edges ? 2 * kWordBytes : kWordBytes);
  }

  switch (ph.kind) {
    case PhaseKind::kGatherAggregate:
      return step_gather_aggregate(t);
    case PhaseKind::kProject:
      return step_project(t);
    case PhaseKind::kEdgeDnaAggregate:
      return step_edge_dna_aggregate(t);
  }
  assert(false);
  return 1;
}

std::uint32_t Gpe::step_alloc_aggregate(Thread& t, Addr out,
                                        std::uint64_t expected_words) {
  const PhaseSpec& ph = *phase_;
  if (t.stage == 2) {  // the DNQ entry, if the phase projects
    if (!ph.has_dna()) {
      t.stage = 3;
      return params_.cost_loop_iter;
    }
    if (granted(t,
                dnq_.allocate(0, fp_.dnq0_entry_words,
                              Dest{.kind = Dest::Kind::kMemWrite, .addr = out},
                              t.work),
                t.cur_dnq0_h)) {
      t.stage = 3;
    }
    return params_.cost_alloc;
  }
  // Stage 3: the AGG entry.
  if (granted(t,
              agg_.allocate(fp_.agg_entry_words, expected_words, ph.agg_op,
                            result_dest(ph.has_dna(), t.cur_dnq0_h, out),
                            t.work),
              t.agg_h)) {
    t.stage = 4;
  }
  return params_.cost_alloc;
}

std::uint32_t Gpe::step_gather_aggregate(Thread& t) {
  const PhaseSpec& ph = *phase_;
  if (t.stage < 4) {
    // Multi-hop phases know their contribution count from the walk tree;
    // plain gathers contribute once per neighbor (+ self).
    const std::uint64_t contribs =
        ph.walk_len > 1 ? ph.expected_contribs[t.work] : t.n_contrib;
    return step_alloc_aggregate(t, row_addr(ph.output, t.work),
                                contribs * fp_.agg_entry_words);
  }
  if (ph.walk_len > 1) return step_walk(t);
  // Stage 4: gather loop — one indirect load per contribution.
  if (t.loop_i >= t.n_contrib) {
    finish_task(t);
    return params_.cost_loop_iter;
  }
  const graph::Graph& g = task_graph(t);
  const NodeId u = t.loop_i < g.out_degree(t.local_v)
                       ? g.neighbors(t.local_v)[t.loop_i]
                       : t.local_v;
  load_rows(t, ph.gather, global_id(t, u), ep_agg_, t.agg_h);
  if (++t.loop_i >= t.n_contrib) finish_task(t);
  return params_.cost_loop_iter + params_.cost_issue_load;
}

std::uint32_t Gpe::step_walk(Thread& t) {
  // Depth-first enumeration of all walks of length walk_len from the task
  // vertex. Expanding an interior vertex requires its adjacency row —
  // two *dependent* memory round trips (row pointers, then column
  // indices) that the thread blocks on; walk endpoints are gathered with
  // indirect loads routed straight to the AGG entry.
  const PhaseSpec& ph = *phase_;
  const graph::Graph& g = task_graph(t);
  WalkFrame& f = t.walk[t.walk_depth - 1];
  if (f.row_state < 2) return fetch_row(t, f.node, f.row_state++, kWordBytes);

  // Row resident: visit the next child.
  if (f.next_child >= g.out_degree(f.node)) {  // subtree done
    if (--t.walk_depth == 0) finish_task(t);
    return params_.cost_loop_iter;
  }
  const NodeId w = g.neighbors(f.node)[f.next_child++];
  if (t.walk_depth == ph.walk_len) {  // endpoint: gather its vector
    load_rows(t, ph.gather, global_id(t, w), ep_agg_, t.agg_h);
    return params_.cost_loop_iter + params_.cost_issue_load;
  }
  // Interior: descend.
  t.walk[t.walk_depth++] = WalkFrame{w, 0, 0};
  return params_.cost_loop_iter;
}

std::uint32_t Gpe::step_project(Thread& t) {
  const PhaseSpec& ph = *phase_;
  if (t.stage == 2) {  // allocate the DNQ entry
    if (granted(t,
                dnq_.allocate(0, fp_.dnq0_entry_words,
                              Dest{.kind = Dest::Kind::kMemWrite,
                                   .addr = row_addr(ph.output, t.work)},
                              t.work),
                t.cur_dnq0_h)) {
      t.stage = 3;
    }
    return params_.cost_alloc;
  }
  // Stage 3: one load per input buffer.
  load_rows(t, ph.extra_inputs[t.loop_i], t.work, ep_dnq_, t.cur_dnq0_h);
  if (++t.loop_i >= ph.extra_inputs.size()) finish_task(t);
  return params_.cost_loop_iter + params_.cost_issue_load;
}

std::uint32_t Gpe::step_edge_dna_aggregate(Thread& t) {
  const PhaseSpec& ph = *phase_;
  const Addr out_addr = row_addr(ph.output, t.work);

  if (t.stage == 2) {  // fetch the vertex's own vector into the scratchpad
    t.stage = 3;
    if (ph.gpe_words_per_entry == 0 && ph.dna2_gpe_words == 0) {
      return params_.cost_loop_iter;
    }
    return load_and_wait(t, row_addr(ph.gather, t.work),
                         std::uint64_t{ph.gather.width_words} * kWordBytes);
  }
  if (t.stage == 3) {  // allocate the virtual-queue-1 entry (GRU etc.)
    if (!ph.has_dna2()) {
      t.stage = 4;
      return params_.cost_loop_iter;
    }
    if (granted(t,
                dnq_.allocate(1, fp_.dnq1_entry_words,
                              Dest{.kind = Dest::Kind::kMemWrite,
                                   .addr = out_addr},
                              t.work),
                t.dnq1_h)) {
      t.stage = 4;
    }
    return params_.cost_alloc;
  }
  if (t.stage == 4) {  // allocate the AGG entry
    if (granted(t,
                agg_.allocate(fp_.agg_entry_words,
                              std::uint64_t{t.n_contrib} * fp_.agg_entry_words,
                              ph.agg_op,
                              result_dest(ph.has_dna2(), t.dnq1_h, out_addr),
                              t.work),
                t.agg_h)) {
      t.stage = 5;
    }
    return params_.cost_alloc;
  }
  if (t.stage == 5) {  // copy h_v into the queue-1 entry
    t.stage = 6;
    const bool copy = ph.has_dna2() && ph.dna2_gpe_words > 0;
    if (copy) send_to_dnq(t, t.dnq1_h, ph.dna2_gpe_words);
    if (t.n_contrib == 0) finish_task(t);
    return copy ? params_.cost_send : params_.cost_loop_iter;
  }

  // Stage 6: per-edge loop; each iteration allocates a queue-0 entry and
  // feeds it (loads + GPE copy).
  const graph::Graph& g = task_graph(t);
  const bool is_self = t.loop_i >= g.out_degree(t.local_v);
  assert(!(is_self && !ph.extra_inputs.empty() && ph.extra_inputs_per_edge) &&
         "self contribution cannot carry per-edge inputs");

  if (t.loop_sub == 0) {  // allocate queue-0 entry
    if (granted(t,
                dnq_.allocate(0, fp_.dnq0_entry_words,
                              Dest{.kind = Dest::Kind::kAggEntry,
                                   .ep = ep_agg_,
                                   .handle = t.agg_h},
                              t.work),
                t.cur_dnq0_h)) {
      t.loop_sub = 1;
    }
    return params_.cost_alloc;
  }
  if (t.loop_sub == 1) {  // load the neighbor vector
    const NodeId u = is_self ? t.local_v : g.neighbors(t.local_v)[t.loop_i];
    load_rows(t, ph.gather, global_id(t, u), ep_dnq_, t.cur_dnq0_h);
    t.loop_sub = 2;
    return params_.cost_loop_iter + params_.cost_issue_load;
  }
  if (t.loop_sub == 2 && !ph.extra_inputs.empty()) {  // per-edge extras
    const std::uint64_t row =
        ph.extra_inputs_per_edge
            ? std::uint64_t{prog_->graphs[t.graph_idx].edge_offset} +
                  g.edge_index(t.local_v, t.loop_i)
            : t.work;
    load_rows(t, ph.extra_inputs.front(), row, ep_dnq_, t.cur_dnq0_h);
    t.loop_sub = 3;
    return params_.cost_loop_iter + params_.cost_issue_load;
  }
  // Final sub-step: GPE copy of p_v / advance to next edge.
  if (ph.gpe_words_per_entry > 0) {
    send_to_dnq(t, t.cur_dnq0_h, ph.gpe_words_per_entry);
  }
  ++t.loop_i;
  t.loop_sub = 0;
  if (t.loop_i >= t.n_contrib) finish_task(t);
  return ph.gpe_words_per_entry > 0 ? params_.cost_send
                                    : params_.cost_loop_iter;
}

std::uint32_t Gpe::step_graph_readout(Thread& t) {
  const PhaseSpec& ph = *phase_;
  // Work item = graph index. Stage 0: bind; no traversal needed — the
  // graph's vertex block is contiguous in the gather buffer.
  if (t.stage == 0) {
    t.graph_idx = t.work;
    t.n_contrib = prog_->graphs[t.graph_idx].num_nodes;
    t.stage = 2;
    return params_.cost_loop_iter;
  }
  if (t.stage < 4) {  // DNQ entry for the pooled vector, AGG entry summing it
    return step_alloc_aggregate(
        t, row_addr(ph.output, t.work),
        std::uint64_t{t.n_contrib} * ph.gather.width_words);
  }
  // Stage 4: one wide load of the graph's contiguous state block.
  load_rows(t, ph.gather, global_id(t, 0), ep_agg_, t.agg_h, t.n_contrib);
  finish_task(t);
  return params_.cost_issue_load;
}

}  // namespace gnna::accel
