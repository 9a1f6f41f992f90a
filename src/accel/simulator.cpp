#include "accel/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "accel/analysis.hpp"
#include "accel/report.hpp"
#include "accel/verify.hpp"

namespace gnna::accel {

namespace {

/// `out`, opened on `path` for writing; throws std::runtime_error when it
/// cannot be.
std::ofstream& open_output(std::ofstream& out, const std::string& path) {
  out.open(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  return out;
}

}  // namespace

AcceleratorSim::AcceleratorSim(AcceleratorConfig cfg,
                               graph::PartitionPolicy partition)
    : cfg_(std::move(cfg)), partition_(partition) {}

void AcceleratorSim::build() {
  ratio_ = cfg_.clock_ratio();
  net_ = std::make_unique<noc::MeshNetwork>(cfg_.mesh_width, cfg_.mesh_height,
                                            cfg_.noc_params);

  // Register endpoints: three per tile (GPE, AGG, DNQ/DNA — the 7-port
  // crossbar), one per memory node.
  struct TileEps {
    EndpointId gpe, agg, dnq;
  };
  std::vector<TileEps> tile_eps;
  tile_eps.reserve(cfg_.tile_coords.size());
  ep_to_tile_.clear();
  for (const auto& [x, y] : cfg_.tile_coords) {
    TileEps eps{};
    eps.gpe = net_->add_endpoint(x, y);
    eps.agg = net_->add_endpoint(x, y);
    eps.dnq = net_->add_endpoint(x, y);
    const auto tile = static_cast<std::uint32_t>(tile_eps.size());
    ep_to_tile_.insert(ep_to_tile_.end(), 3, tile);
    tile_eps.push_back(eps);
  }
  // A tile's calendar entry is its index; the memory controllers follow.
  ep_unit_ = ep_to_tile_;
  std::vector<EndpointId> mem_eps;
  mem_eps.reserve(cfg_.mem_coords.size());
  for (const auto& [x, y] : cfg_.mem_coords) {
    ep_unit_.push_back(static_cast<std::uint32_t>(
        cfg_.tile_coords.size() + mem_eps.size()));
    mem_eps.push_back(net_->add_endpoint(x, y));
    ep_to_tile_.push_back(trace::Attribution::kNoTile);
  }
  net_->finalize();
  calendar_.assign(tile_eps.size() + mem_eps.size(), CalendarEntry{});

  addr_map_ = std::make_unique<AddressMap>(mem_eps, cfg_.interleave_bytes);
  for (const auto& eps : tile_eps) {
    tiles_.push_back(std::make_unique<Tile>(cfg_, *net_, eps.gpe, eps.agg,
                                            eps.dnq, *addr_map_));
  }
  for (const EndpointId ep : mem_eps) {
    mems_.push_back(std::make_unique<mem::MemoryController>(
        *net_, ep, cfg_.mem_params, cfg_.noc_clock));
  }
}

void AcceleratorSim::set_trace(TraceOptions opts) {
  const auto reject_if = [](bool bad, const char* why) {
    if (bad) throw std::invalid_argument(std::string("TraceOptions: ") + why);
  };
  reject_if(!opts.trace_path.empty() && opts.sink != nullptr,
            "trace_path and sink are exclusive");
  reject_if(!opts.sample_path.empty() && opts.sample_out != nullptr,
            "sample_path and sample_out are exclusive");
  reject_if(!opts.sample_path.empty() && opts.sample_every == 0,
            "sample_path needs sample_every > 0");
  trace_ = std::move(opts);
}

void AcceleratorSim::attach_tracers(const CompiledProgram& prog) {
  if (!trace_.trace_path.empty()) {
    chrome_ = std::make_unique<trace::ChromeTraceSink>(
        open_output(trace_file_, trace_.trace_path));
    trace_.sink = chrome_.get();
  }
  sink_ = trace_.sink;
  if (trace_.profile) {
    profiler_ = std::make_unique<trace::Profiler>();
  }
  if (trace_.attribution) {
    attribution_ = std::make_unique<trace::Attribution>(
        static_cast<std::uint32_t>(tiles_.size()), ep_to_tile_,
        prog.total_vertices());
  }
  // Compose whatever is attached; a single consumer skips the tee.
  std::vector<trace::TraceSink*> sinks;
  if (sink_ != nullptr) sinks.push_back(sink_);
  if (profiler_) sinks.push_back(profiler_.get());
  if (attribution_) sinks.push_back(attribution_.get());
  if (sinks.empty()) return;
  if (sinks.size() == 1) {
    sink_ = sinks.front();
  } else {
    for (trace::TraceSink* s : sinks) tee_.add(s);
    sink_ = &tee_;
  }
  const Cycle* clock = net_->now_ptr();
  net_->set_tracer({sink_, clock, trace::Category::kNoc, 0});
  for (std::size_t i = 0; i < mems_.size(); ++i) {
    mems_[i]->set_tracer({sink_, clock, trace::Category::kMem,
                          static_cast<std::uint32_t>(i)});
  }
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    tiles_[i]->set_tracing(sink_, static_cast<std::uint32_t>(i));
  }
}

void AcceleratorSim::begin_sampling() {
  if (trace_.sample_every == 0) return;
  next_sample_ = trace_.sample_every;
  last_sample_cycle_ = 0;
  prev_gpe_busy_ = prev_dna_busy_ = prev_agg_busy_ = 0;
  prev_mem_bytes_.assign(mems_.size(), 0);
  if (!trace_.sample_path.empty()) {
    trace_.sample_out = &open_output(sample_file_, trace_.sample_path);
  } else if (trace_.sample_out == nullptr) {
    trace_.sample_out = &std::cerr;
  }
  *trace_.sample_out << sample_csv_header(mems_.size()) << '\n';
}

void AcceleratorSim::sample(const std::string& phase_name) {
  catch_up();
  const Cycle now = net_->now();
  const Cycle window = now - last_sample_cycle_;
  last_sample_cycle_ = now;
  next_sample_ = now + trace_.sample_every;

  std::uint64_t gpe_busy = 0;
  std::uint64_t dna_busy = 0;
  std::uint64_t agg_busy = 0;
  std::uint32_t dnq_live = 0;
  std::uint32_t agg_live = 0;
  for (const auto& t : tiles_) {
    gpe_busy += t->gpe().stats().busy_time;
    dna_busy += t->dna().stats().busy_time;
    agg_busy += t->agg().stats().busy_time;
    dnq_live += t->dnq().live_entries();
    agg_live += t->agg().live_entries();
  }
  const double denom =
      static_cast<double>(window) * static_cast<double>(tiles_.size());
  const auto frac = [&](std::uint64_t busy, std::uint64_t prev) {
    return denom > 0.0 ? ratio_.cycles(busy - prev) / denom : 0.0;
  };
  const double gpe_frac = frac(gpe_busy, prev_gpe_busy_);
  const double dna_frac = frac(dna_busy, prev_dna_busy_);
  const double agg_frac = frac(agg_busy, prev_agg_busy_);
  prev_gpe_busy_ = gpe_busy;
  prev_dna_busy_ = dna_busy;
  prev_agg_busy_ = agg_busy;

  std::size_t mem_depth = 0;
  for (const auto& m : mems_) mem_depth += m->queue_depth();
  const std::size_t inflight = net_->inflight_packets();

  const double window_s =
      cfg_.noc_clock.cycles_to_seconds(static_cast<double>(window));
  std::vector<double> mem_gbps(mems_.size(), 0.0);
  double total_gbps = 0.0;
  for (std::size_t i = 0; i < mems_.size(); ++i) {
    const std::uint64_t served = mems_[i]->stats().bytes_served.value();
    const std::uint64_t delta = served - prev_mem_bytes_[i];
    prev_mem_bytes_[i] = served;
    mem_gbps[i] =
        window_s > 0.0 ? static_cast<double>(delta) / window_s / 1e9 : 0.0;
    total_gbps += mem_gbps[i];
  }

  // Assemble the row first and emit it with one stream write, so rows
  // stay intact even if several runs share the stream.
  std::ostringstream row;
  row << now << ',' << phase_name << ',' << gpe_frac << ',' << dna_frac << ','
      << agg_frac << ',' << dnq_live << ',' << agg_live << ',' << mem_depth
      << ',' << inflight << ',' << total_gbps;
  for (const double g : mem_gbps) row << ',' << g;
  row << '\n';
  *trace_.sample_out << row.str();
  if (sink_ != nullptr) {
    const auto at = static_cast<double>(now);
    sink_->counter(trace::Category::kGpe, 0, "busy_frac", at, gpe_frac);
    sink_->counter(trace::Category::kDna, 0, "busy_frac", at, dna_frac);
    sink_->counter(trace::Category::kAgg, 0, "busy_frac", at, agg_frac);
    sink_->counter(trace::Category::kDnq, 0, "live_entries", at,
                   static_cast<double>(dnq_live));
    sink_->counter(trace::Category::kNoc, 0, "inflight_packets", at,
                   static_cast<double>(inflight));
    sink_->counter(trace::Category::kMem, 0, "queue_depth", at,
                   static_cast<double>(mem_depth));
    sink_->counter(trace::Category::kMem, 0, "total_gbps", at, total_gbps);
  }
}

void AcceleratorSim::catch_up() {
  for (const auto& t : tiles_) t->gpe().catch_up(net_->now());
}

void AcceleratorSim::trip_watchdog(const std::string& phase) {
  catch_up();
  std::string report = deadlock_report(phase);
  const std::string& path = trace_.deadlock_report_path;
  if (!path.empty() && !(std::ofstream(path) << report << std::flush)) {
    report += "(cannot write this report to " + path + ")\n";
  }
  throw std::runtime_error("AcceleratorSim: no progress in phase " + phase +
                           " for " + std::to_string(watchdog_cycles_) +
                           " cycles (deadlock?)\n" + report);
}

std::string AcceleratorSim::deadlock_report(const std::string& phase) const {
  std::ostringstream os;
  os << "=== deadlock diagnostics (phase '" << phase << "', cycle "
     << net_->now() << ") ===\n";
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    os << "tile " << i << (tiles_[i]->idle() ? " [idle]" : " [BUSY]") << '\n';
    tiles_[i]->dump_state(os);
  }
  for (std::size_t i = 0; i < mems_.size(); ++i) {
    os << "mem " << i << (mems_[i]->idle() ? " [idle]" : " [BUSY]") << '\n';
    mems_[i]->dump_state(os);
  }
  net_->dump_state(os);
  return os.str();
}

void AcceleratorSim::settle(std::size_t u, bool idle,
                            std::uint64_t retired) {
  // Retired work only. Sends and GPE actions do not count: a thread that
  // retries a failed allocation every 16 cycles sends nothing and retires
  // nothing, and must trip the watchdog instead of spinning forever.
  CalendarEntry& e = calendar_[u];
  if (idle != e.idle) {
    busy_units_ = idle ? busy_units_ - 1 : busy_units_ + 1;
    e.idle = idle;
  }
  retired_ += retired - e.retired;
  e.retired = retired;
}

void AcceleratorSim::tick_tile(std::size_t i, Cycle now) {
  Tile& tile = *tiles_[i];
  tile.tick();
  Cycle due = tile.next_event(now + 1);
  // Traced, a spinning GPE ticks at each of its retries, here or in
  // advance_spinning, so that its trace events keep their order.
  if (sink_ != nullptr) due = std::min(due, tile.gpe().next_event(now + 1));
  calendar_[i].due = due;
  settle(i, tile.idle(), tile.retired());
}

void AcceleratorSim::tick_mem(std::size_t i, Cycle now) {
  mem::MemoryController& m = *mems_[i];
  m.tick();
  const std::size_t u = tiles_.size() + i;
  calendar_[u].due = m.next_event(now + 1);
  settle(u, m.idle(), m.stats().bytes_served.value());
}

Cycle AcceleratorSim::next_event(Cycle now) const {
  // On a busy mesh the NoC is due every cycle, and nothing else matters.
  Cycle t = net_->next_event(now);
  if (t <= now) return now;
  for (std::size_t u = 0; u < calendar_.size(); ++u) {
    // Traced, a spinning GPE's tile is due at its retries, which are
    // advance_spinning's, at its other units' events and when a delivery
    // woke it; the tile's next event and its mail give the last two.
    Cycle due = calendar_[u].due;
    if (sink_ != nullptr && u < tiles_.size() &&
        tiles_[u]->gpe().spinning()) {
      due = tiles_[u]->has_mail() ? now : tiles_[u]->next_event(now);
    }
    t = std::min(t, due);
  }
  return t;
}

void AcceleratorSim::advance_spinning(Cycle at, Cycle to) {
  spinning_.clear();
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const Gpe& gpe = tiles_[i]->gpe();
    if (gpe.spinning()) spinning_.emplace_back(i, gpe.next_event(at));
  }
  most_spinning_ = std::max(most_spinning_, spinning_.size());
  // Untraced, the GPEs lag, and Gpe::catch_up replays their retries.
  if (sink_ == nullptr) return;
  // A spinning GPE's ticks touch no other unit, so each GPE can spin
  // straight to `to`. A trace, though, orders the events of several GPEs
  // by cycle and, within a cycle, by tile, as passes of the loop would, so
  // then each spins one cycle at a time.
  const bool interleave = spinning_.size() > 1;
  for (;;) {
    Cycle c = kNeverCycle;
    for (const auto& [i, retry] : spinning_) c = std::min(c, retry);
    if (c >= to) break;
    for (auto& [i, retry] : spinning_) {
      if (retry == c) {
        retry = tiles_[i]->gpe().spin(c, interleave ? c + 1 : to);
      }
    }
  }
  for (const auto& [i, retry] : spinning_) {
    calendar_[i].due = std::min(tiles_[i]->next_event(to), retry);
  }
}

RunStats AcceleratorSim::run(const CompiledProgram& prog,
                             const graph::Dataset& ds) {
  if (used_) throw std::logic_error("AcceleratorSim::run: already used");
  used_ = true;
  // Static verification before any hardware is built: a program that
  // cannot execute (oversized entries, bad models, unwritten buffers)
  // fails here with structured diagnostics instead of deadlocking into
  // the watchdog. The bound dataset enables the topology-dependent
  // checks (walk-tree recomputation, layout/dataset agreement). The
  // config-dependent lints (GV108, GV2xx) are all warnings, which never
  // throw, so they are left to gnnaverify and the static model is
  // evaluated once, for RunStats::static_model.
  if (verify_) verify_or_throw(prog, cfg_.tile_params, &ds);
  build();
  attach_tracers(prog);
  begin_sampling();

  const auto num_tiles = static_cast<std::uint32_t>(tiles_.size());

  RunStats rs;
  rs.config_name = cfg_.name;
  rs.program_name = prog.name;
  rs.core_clock_ghz = cfg_.core_clock.ghz();

  std::uint64_t mem_served_before_phase = 0;

  for (const PhaseSpec& phase : prog.phases) {
    // Work distribution (the shared in-memory work queues of Algorithm 1,
    // realized as a static split of the phase's items across tiles).
    const graph::Partition part = phase_partition(
        prog, phase, &ds, num_tiles, partition_, profile_loads_);
    std::vector<std::vector<std::uint32_t>> work = part.by_tile();

    const Cycle phase_start = net_->now();
    // Phase markers: pure observation (no tick happens here), so enabling
    // them cannot move a single cycle — the goldens pin this.
    if (sink_ != nullptr) {
      sink_->phase_begin(phase.name.c_str(),
                         static_cast<double>(phase_start));
    }
    for (std::uint32_t t = 0; t < num_tiles; ++t) {
      tiles_[t]->begin_phase(prog, ds, phase, std::move(work[t]));
      settle(t, tiles_[t]->idle(), tiles_[t]->retired());
    }
    for (CalendarEntry& e : calendar_) e.due = phase_start;

    // Run to the global barrier. Each pass ticks the units whose calendar
    // entry is due, then jumps the clock to the next cycle at which
    // anything can happen: a unit's next event, the next sample or the
    // watchdog's trip (DESIGN.md §17). A due sample or trip blocks the
    // jump, so both land on the cycles that ticking every cycle would give
    // them.
    std::uint64_t last_sig = progress_signature();
    Cycle last_progress = net_->now();
    bool idle = everything_idle();
    while (!idle) {
      const Cycle now = net_->now();
      for (std::size_t i = 0; i < tiles_.size(); ++i) {
        if (reference_loop_ || calendar_[i].due <= now) tick_tile(i, now);
      }
      for (std::size_t i = 0; i < mems_.size(); ++i) {
        if (reference_loop_ || calendar_[tiles_.size() + i].due <= now) {
          tick_mem(i, now);
        }
      }
      net_->tick();
      const Cycle at = net_->now();
      net_->take_deliveries([this, at](EndpointId ep) {
        // A controller with a full queue (in-order) or window (FR-FCFS)
        // admits nothing; the retirement that frees a slot is its own
        // next event, and that wakes it.
        const std::uint32_t u = ep_unit_[ep];
        if (u < tiles_.size() || mems_[u - tiles_.size()]->has_free_slot()) {
          calendar_[u].due = at;
        }
      });
      const std::uint64_t sig = progress_signature();
      if (sig != last_sig) {
        last_sig = sig;
        last_progress = at;
      }
      idle = everything_idle();

      Cycle next = at;
      if (!idle && !reference_loop_) {
        const Cycle trip = last_progress + watchdog_cycles_ + 1;
        next = std::min({next_event(at), next_sample_,
                         trip > last_progress ? trip : kNeverCycle});
      }
      if (next > at) {
        // Only spinning GPEs tick before `next`, and they retire no work,
        // so the progress signature cannot move.
        advance_spinning(at, next);
        net_->skip_to(next);
      }
      if (net_->now() >= next_sample_) sample(phase.name);
      if (net_->now() - last_progress > watchdog_cycles_) {
        trip_watchdog(phase.name);
      }
    }

    // A spinning GPE has stalled threads, so it is not idle: no GPE lags
    // at the barrier, and the stats below need no catch-up.
    assert(std::none_of(tiles_.begin(), tiles_.end(),
                        [](const auto& t) { return t->gpe().spinning(); }));
    if (sink_ != nullptr) {
      sink_->phase_end(phase.name.c_str(), static_cast<double>(net_->now()));
    }

    PhaseStats ps;
    ps.name = phase.name;
    ps.cycles = net_->now() - phase_start;
    std::uint64_t served = 0;
    for (const auto& m : mems_) served += m->stats().bytes_served.value();
    ps.mem_bytes_served = served - mem_served_before_phase;
    mem_served_before_phase = served;
    ps.tasks = part.num_nodes();
    rs.phases.push_back(std::move(ps));
  }

  // The run's files are complete once it returns, and a failed write
  // fails the run.
  if (chrome_) chrome_->close();
  for (auto [file, path] : {std::pair{&trace_file_, &trace_.trace_path},
                            std::pair{&sample_file_, &trace_.sample_path}}) {
    if (!file->is_open()) continue;
    file->close();
    if (file->fail()) throw std::runtime_error("cannot write " + *path);
  }

  // Aggregate statistics.
  rs.cycles = net_->now();
  rs.seconds = cfg_.noc_clock.cycles_to_seconds(static_cast<double>(rs.cycles));
  rs.millis = rs.seconds * 1e3;

  rs.mem_scheduler = mem::mem_scheduler_name(cfg_.mem_params.scheduler);
  double occupancy_weight = 0.0;
  double occupancy_sum = 0.0;
  for (std::size_t mi = 0; mi < mems_.size(); ++mi) {
    const auto& m = mems_[mi];
    rs.mem_bytes_requested += m->stats().bytes_requested.value();
    rs.mem_bytes_served += m->stats().bytes_served.value();
    rs.mem_row_hits += m->row_hits();
    rs.mem_row_misses += m->row_misses();
    occupancy_sum += m->stats().queue_depth.sum();
    occupancy_weight += m->stats().queue_depth.weight();
    rs.mem_queue_occupancy_max =
        std::max(rs.mem_queue_occupancy_max, m->stats().queue_depth.max());
    for (std::size_t b = 0; b < m->stats().banks.size(); ++b) {
      const mem::BankStats& bs = m->stats().banks[b];
      RunStats::MemBankStats out;
      out.mem = static_cast<std::uint32_t>(mi);
      out.bank = static_cast<std::uint32_t>(b);
      out.row_hits = bs.row_hits.value();
      out.row_misses = bs.row_misses.value();
      out.busy_frac = rs.cycles > 0
                          ? bs.busy_cycles / static_cast<double>(rs.cycles)
                          : 0.0;
      rs.mem_banks.push_back(out);
    }
  }
  const std::uint64_t row_total = rs.mem_row_hits + rs.mem_row_misses;
  rs.mem_row_hit_rate =
      row_total > 0 ? static_cast<double>(rs.mem_row_hits) /
                          static_cast<double>(row_total)
                    : 0.0;
  rs.mem_queue_occupancy =
      occupancy_weight > 0.0 ? occupancy_sum / occupancy_weight : 0.0;
  rs.mean_bandwidth_gbps =
      rs.seconds > 0.0
          ? static_cast<double>(rs.mem_bytes_served) / rs.seconds / 1e9
          : 0.0;
  const double peak_gbps = cfg_.total_mem_bandwidth_gbps();
  rs.bandwidth_utilization =
      peak_gbps > 0.0 ? rs.mean_bandwidth_gbps / peak_gbps : 0.0;

  const double denom = static_cast<double>(rs.cycles) * num_tiles;
  std::uint64_t dna_busy = 0;
  std::uint64_t gpe_busy = 0;
  std::uint64_t agg_busy = 0;
  for (const auto& t : tiles_) {
    dna_busy += t->dna().stats().busy_time;
    gpe_busy += t->gpe().stats().busy_time;
    agg_busy += t->agg().stats().busy_time;
    rs.tasks_completed += t->gpe().stats().tasks_completed.value();
    rs.dnq_queue_switches += t->dnq().stats().queue_switches.value();
    rs.alloc_stalls += t->gpe().stats().alloc_stalls.value();
    rs.agg_words_reduced += t->agg().stats().words_reduced.value();
    rs.dna_macs += t->dna().stats().macs.value();
    rs.gpe_actions += t->gpe().stats().actions.value();
    rs.dnq_words += t->dnq().stats().enqueued_words.value();
  }
  rs.noc_flit_hops = net_->stats().flit_hops.value();
  rs.noc_flits_delivered = net_->stats().flits_delivered.value();
  if (denom > 0.0) {
    rs.dna_utilization = ratio_.cycles(dna_busy) / denom;
    rs.gpe_utilization = ratio_.cycles(gpe_busy) / denom;
    rs.agg_utilization = ratio_.cycles(agg_busy) / denom;
  }
  rs.packets_delivered = net_->stats().packets_delivered.value();
  rs.avg_packet_latency = net_->stats().packet_latency.mean();
  if (profiler_) {
    rs.profile =
        std::make_shared<const trace::ProfileReport>(profiler_->report());
  }
  if (attribution_) {
    rs.attribution = std::make_shared<const trace::AttributionReport>(
        attribution_->report());
  }
  {
    // Static shadow model of the run just measured (purely analytic — no
    // simulator state involved, so cycle counts cannot move).
    AnalysisOptions aopt;
    aopt.dataset = &ds;
    aopt.partition = partition_;
    rs.static_model = std::make_shared<const ProgramAnalysis>(
        analyze_program(prog, cfg_, aopt));
  }
  return rs;
}

}  // namespace gnna::accel
