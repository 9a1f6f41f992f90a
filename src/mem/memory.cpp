#include "mem/memory.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <stdexcept>
#include <string>

namespace gnna::mem {

std::optional<MemScheduler> mem_scheduler_by_name(std::string_view name) {
  std::string s;
  s.reserve(name.size());
  for (const char c : name) s.push_back(c == '-' ? '_' : c);
  if (s == "in_order" || s == "inorder") return MemScheduler::kInOrder;
  if (s == "frfcfs" || s == "fr_fcfs") return MemScheduler::kFrFcfs;
  return std::nullopt;
}

void validate(const MemParams& p) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("MemParams: " + what);
  };
  if (p.queue_entries == 0) fail("queue_entries must be >= 1");
  static_assert(MemParams::access_granularity > 0);
  if (p.latency_ns < 0.0) fail("latency_ns must be >= 0");
  if (p.scheduler == MemScheduler::kFrFcfs) {
    if (p.banks == 0) fail("frfcfs needs banks >= 1");
    if (p.banks > 1024) fail("banks > 1024 is surely a typo");
    if (p.window_entries == 0) fail("frfcfs needs window_entries >= 1");
    if (p.bank_interleave_bytes == 0) fail("bank_interleave_bytes must be >= 1");
    if (p.row_bytes == 0 || p.row_bytes % p.bank_interleave_bytes != 0) {
      fail("row_bytes must be a positive multiple of bank_interleave_bytes");
    }
    if (p.row_hit_ns < 0.0 || p.row_miss_ns < 0.0) {
      fail("row latencies must be >= 0");
    }
  }
}

MemoryController::MemoryController(noc::MeshNetwork& net, EndpointId endpoint,
                                   MemParams params, Frequency clk)
    : net_(net),
      endpoint_(endpoint),
      params_(params),
      frfcfs_(params.scheduler == MemScheduler::kFrFcfs),
      bytes_per_cycle_(params.bandwidth.bytes_per_cycle(clk)),
      latency_cycles_(static_cast<double>(
          clk.nanos_to_cycles(params.latency_ns))) {
  validate(params_);
  if (frfcfs_) {
    row_hit_cycles_ =
        static_cast<double>(clk.nanos_to_cycles(params_.row_hit_ns));
    row_miss_cycles_ =
        static_cast<double>(clk.nanos_to_cycles(params_.row_miss_ns));
    reorder_ = row_hit_cycles_ != row_miss_cycles_;
    granules_per_row_ = params_.row_bytes / params_.bank_interleave_bytes;
    banks_.resize(params_.banks);
    stats_.banks.resize(params_.banks);
  }
}

void MemoryController::tick() {
  const auto now = static_cast<double>(net_.now());
  admit(now);
  if (frfcfs_) schedule_frfcfs(now);
  retire(now);
  sample_depth();
}

void MemoryController::admit(double now) {
  // Admit new requests while the queue (in-order) / scheduling window
  // (FR-FCFS) has room. Requests beyond that wait, unseen, in the NoC
  // delivery queue — the backpressure the paper's model implies.
  while (has_free_slot()) {
    const noc::Message* head = net_.peek(endpoint_);
    if (head == nullptr) break;
    auto msg = net_.poll(endpoint_);
    assert(msg.has_value());

    // Oversized requests would overflow the 32-bit response payload field
    // and silently truncate; reject them here, at admission, for both
    // schedulers.
    if (msg->b > kMaxRequestBytes) {
      throw std::invalid_argument(
          "MemoryController: request of " + std::to_string(msg->b) +
          " bytes from endpoint " + std::to_string(msg->src) +
          " exceeds the 4GiB-1 response payload limit");
    }

    const std::uint64_t requested = msg->b;
    // Granularity: unaligned / partial requests still burn whole 64B lines.
    const std::uint64_t addr = msg->a;
    const std::uint64_t first_line = addr / params_.access_granularity;
    const std::uint64_t last_line =
        (addr + std::max<std::uint64_t>(requested, 1) - 1) /
        params_.access_granularity;
    const std::uint64_t served_bytes =
        (last_line - first_line + 1) * params_.access_granularity;

    InFlight inf;
    inf.request = *msg;
    inf.served_bytes = served_bytes;
    // Writes hold their queue slot until the data bus has moved their
    // bytes; they retire silently (no response message) but exert the same
    // backpressure as reads. Other traffic to a memory endpoint is a wiring
    // bug.
    inf.is_write = msg->kind == noc::MsgKind::kMemWriteReq;
    assert((inf.is_write || msg->kind == noc::MsgKind::kMemReadReq) &&
           "MemoryController: unexpected message kind");
    stats_.bytes_requested.add(requested);

    if (frfcfs_) {
      // Bank/row mapping: addresses interleave across banks at
      // `bank_interleave_bytes` stride; a bank's consecutive granules fill
      // rows of `row_bytes`. Multi-line requests are classified by their
      // first granule.
      const std::uint64_t granule = addr / params_.bank_interleave_bytes;
      inf.bank = static_cast<std::uint32_t>(granule % params_.banks);
      inf.row = (granule / params_.banks) / granules_per_row_;
      if (params_.bank_xor) {
        // XOR-permute the bank with the row index so row-stride access
        // patterns rotate across banks instead of camping on one. The
        // double modulo keeps the permutation a bijection on [0, banks)
        // for non-power-of-two bank counts too.
        inf.bank = static_cast<std::uint32_t>(
            (inf.bank ^ (inf.row % params_.banks)) % params_.banks);
      }
      // Scheduling happens in schedule_frfcfs(); the request just joins
      // the window here.
    } else {
      // In-order service: the data bus is busy for the transfer time; the
      // fixed access latency overlaps pipelining of later requests.
      const double start = std::max(dram_free_at_, now);
      const double transfer =
          static_cast<double>(served_bytes) / bytes_per_cycle_;
      dram_free_at_ = start + transfer;
      stats_.bytes_served.add(served_bytes);
      inf.respond_at =
          inf.is_write ? dram_free_at_ : dram_free_at_ + latency_cycles_;
      inf.issued = true;
      if (tracer_.enabled()) {
        tracer_.complete(inf.is_write ? "write" : "read", start, transfer,
                         addr, served_bytes);
      }
    }
    queue_.push_back(inf);
  }
}

void MemoryController::schedule_frfcfs(double now) {
  // Issue one transfer at a time while the data bus is free within a
  // one-cycle lookahead. Starting each transfer at max(dram_free_at_, now)
  // chains fractional-cycle bus reservations exactly like the in-order
  // model's admission-time scheduling, which is what makes the one-bank,
  // equal-latency degenerate case bit-identical (DESIGN.md §11).
  while (dram_free_at_ <= now + 1.0) {
    InFlight* oldest = nullptr;
    InFlight* pick = nullptr;
    for (InFlight& f : queue_) {
      if (f.issued) continue;
      if (oldest == nullptr) oldest = &f;  // queue_ is admission-ordered
      if (pick == nullptr && reorder_) {
        const Bank& bk = banks_[f.bank];
        if (bk.open && bk.row == f.row) pick = &f;  // first ready row-hit
      }
      if (oldest != nullptr && pick != nullptr) break;
    }
    if (oldest == nullptr) break;  // window has nothing unissued
    // First-ready (row hit) wins over oldest-first — unless the oldest
    // request has been bypassed starvation_cap times already.
    if (pick == nullptr || oldest->bypassed >= params_.starvation_cap) {
      pick = oldest;
    }
    if (pick != oldest) {
      for (InFlight& f : queue_) {
        if (&f == pick) break;  // everything before pick is older
        if (!f.issued) ++f.bypassed;
      }
    }

    Bank& bk = banks_[pick->bank];
    const bool hit = bk.open && bk.row == pick->row;
    const double start = std::max(dram_free_at_, now);
    const double transfer =
        static_cast<double>(pick->served_bytes) / bytes_per_cycle_;
    dram_free_at_ = start + transfer;
    const double done =
        dram_free_at_ + (hit ? row_hit_cycles_ : row_miss_cycles_);
    // Writes free their window slot once the bus has moved their data
    // (same backpressure contract as the in-order model); the row
    // activation shows up only in the bank-busy accounting.
    pick->respond_at = pick->is_write ? dram_free_at_ : done;
    pick->issued = true;
    bk.open = true;
    bk.row = pick->row;

    BankStats& bs = stats_.banks[pick->bank];
    const double busy_from = std::max(start, bk.busy_until);
    if (done > busy_from) bs.busy_cycles += done - busy_from;
    bk.busy_until = std::max(bk.busy_until, done);
    (hit ? bs.row_hits : bs.row_misses).add();
    stats_.bytes_served.add(pick->served_bytes);

    if (tracer_.enabled()) {
      tracer_.complete(pick->is_write ? "write" : "read", start, transfer,
                       pick->request.a, pick->served_bytes);
      tracer_.instant(hit ? "row_hit" : "row_miss", pick->request.a,
                      pick->bank);
      const std::uint64_t hits = row_hits();
      const std::uint64_t total = hits + row_misses();
      tracer_.counter("row_hit_rate",
                      total == 0 ? 0.0
                                 : 100.0 * static_cast<double>(hits) /
                                       static_cast<double>(total));
    }
  }
}

void MemoryController::respond(const InFlight& head) {
  const noc::Message& req = head.request;
  noc::Message resp;
  resp.src = endpoint_;
  resp.dst = req.reply_to != kInvalidEndpoint ? req.reply_to : req.src;
  resp.kind = noc::MsgKind::kMemReadResp;
  // Safe: b <= kMaxRequestBytes was enforced at admission.
  resp.payload_bytes = static_cast<std::uint32_t>(req.b);
  resp.owner = req.owner;
  resp.a = req.a;
  resp.b = req.b;
  resp.c = req.c;
  net_.send(resp);
  if (tracer_.enabled()) tracer_.instant("resp", req.a, req.b);
}

void MemoryController::retire(double now) {
  if (!frfcfs_) {
    // Retire completed requests in order; only reads produce a response.
    // A slot freed here is usable by admit() only next tick — the
    // intended 1-cycle slot-recycle latency (admission runs before
    // retirement within one tick).
    while (!queue_.empty() && queue_.front().respond_at <= now) {
      const InFlight& head = queue_.front();
      if (!head.is_write) respond(head);
      queue_.pop_front();
    }
    return;
  }
  // FR-FCFS: completions may be out of admission order. Responses for
  // requests completing on the same tick go out in admission order (the
  // NoC injection queue serializes them anyway), keeping runs
  // deterministic.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->issued && it->respond_at <= now) {
      if (!it->is_write) respond(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void MemoryController::sample_depth() {
  // Time-weighted occupancy: when the depth changes, credit the previous
  // depth with the cycles it was held, then record the new depth at zero
  // weight so max() stays exact even if the run ends before the next
  // change. (An every-cycle add would serialize a Welford division on the
  // hot path for a series nobody reads per cycle.)
  if (queue_.size() != last_sampled_depth_) {
    const Cycle nowc = net_.now();
    stats_.queue_depth.add_weighted(
        static_cast<double>(last_sampled_depth_),
        static_cast<double>(nowc - last_depth_change_));
    last_sampled_depth_ = queue_.size();
    last_depth_change_ = nowc;
    stats_.queue_depth.add_weighted(static_cast<double>(last_sampled_depth_),
                                    0.0);
    if (frfcfs_ && tracer_.enabled()) {
      tracer_.counter("window_occupancy",
                      static_cast<double>(last_sampled_depth_));
    }
  }
}

std::uint64_t MemoryController::row_hits() const {
  std::uint64_t n = 0;
  for (const BankStats& b : stats_.banks) n += b.row_hits.value();
  return n;
}

std::uint64_t MemoryController::row_misses() const {
  std::uint64_t n = 0;
  for (const BankStats& b : stats_.banks) n += b.row_misses.value();
  return n;
}

double MemoryController::row_hit_rate() const {
  const std::uint64_t hits = row_hits();
  const std::uint64_t total = hits + row_misses();
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void MemoryController::dump_state(std::ostream& os) const {
  os << "  mem endpoint " << endpoint_ << " ["
     << mem_scheduler_name(params_.scheduler) << "]: queue=" << queue_.size()
     << '/' << capacity() << " inbox=" << net_.delivery_queue_depth(endpoint_)
     << " dram_free_at=" << dram_free_at_
     << " bytes_served=" << stats_.bytes_served.value() << '\n';
  if (frfcfs_) {
    for (std::size_t b = 0; b < banks_.size(); ++b) {
      const Bank& bk = banks_[b];
      const BankStats& bs = stats_.banks[b];
      if (!bk.open && bs.row_hits.value() + bs.row_misses.value() == 0) {
        continue;  // untouched bank: nothing to report
      }
      os << "    bank " << b << ": row="
         << (bk.open ? std::to_string(bk.row) : std::string("closed"))
         << " busy_until=" << bk.busy_until
         << " hits=" << bs.row_hits.value()
         << " misses=" << bs.row_misses.value() << '\n';
    }
  }
  std::size_t shown = 0;
  for (const InFlight& f : queue_) {
    if (shown == 8) {
      os << "    ... " << queue_.size() - shown << " more queued\n";
      break;
    }
    ++shown;
    os << "    " << (f.is_write ? "write" : "read ") << " addr=0x" << std::hex
       << f.request.a << std::dec << " bytes=" << f.request.b;
    if (frfcfs_) {
      os << " bank=" << f.bank << " row=" << f.row
         << (f.issued ? " issued" : " waiting")
         << " bypassed=" << f.bypassed;
    }
    if (f.issued) os << " done_at=" << f.respond_at;
    os << '\n';
  }
}

}  // namespace gnna::mem
