#include "trace/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace gnna::trace {

namespace {

/// SplitMix64 finalizer — cheap, well-mixed hash for the sketch rows.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::size_t next_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1U;
  return p;
}

}  // namespace

double AttributionReport::busy_max_mean() const {
  if (tiles.empty()) return 0.0;
  double sum = 0.0;
  double mx = 0.0;
  for (const TileAttribution& t : tiles) {
    sum += t.busy;
    mx = std::max(mx, t.busy);
  }
  const double mean = sum / static_cast<double>(tiles.size());
  return mean > 0.0 ? mx / mean : 0.0;
}

double AttributionReport::flit_gini() const {
  const std::size_t n = tiles.size();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (const TileAttribution& t : tiles) {
    sum += static_cast<double>(t.flits);
  }
  if (sum <= 0.0) return 0.0;
  double abs_diff = 0.0;
  for (const TileAttribution& a : tiles) {
    for (const TileAttribution& b : tiles) {
      abs_diff += std::abs(static_cast<double>(a.flits) -
                           static_cast<double>(b.flits));
    }
  }
  // Gini = sum_ij |xi - xj| / (2 n^2 mean), with n^2 * mean = n * sum.
  return abs_diff / (2.0 * static_cast<double>(n) * sum);
}

std::vector<double> AttributionReport::vertex_busy(
    std::size_t num_vertices) const {
  std::vector<double> loads(num_vertices, 0.0);
  for (const VertexHotspot& v : vertices) {
    if (v.vertex >= num_vertices) {
      throw std::invalid_argument(
          "profiled vertex " + std::to_string(v.vertex) +
          " is past the run's " + std::to_string(num_vertices) + " vertices");
    }
    loads[v.vertex] = std::max(loads[v.vertex], v.busy);
  }
  return loads;
}

Attribution::Attribution(std::uint32_t num_tiles,
                         std::vector<std::uint32_t> ep_to_tile,
                         std::size_t top_k)
    : top_k_(std::max<std::size_t>(top_k, 1)),
      ep_to_tile_(std::move(ep_to_tile)),
      tiles_(num_tiles),
      width_(next_pow2(std::max<std::size_t>(top_k_ * 8, 1024))),
      sketch_(kRows * width_, 0.0) {}

void Attribution::sketch_update(std::uint32_t owner, double w) {
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::uint64_t h = mix(owner + (static_cast<std::uint64_t>(r) << 32));
    sketch_[r * width_ + (h & (width_ - 1))] += w;
  }
}

double Attribution::sketch_estimate(std::uint32_t owner) const {
  double est = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::uint64_t h = mix(owner + (static_cast<std::uint64_t>(r) << 32));
    est = std::min(est, sketch_[r * width_ + (h & (width_ - 1))]);
  }
  return est;
}

Attribution::Candidate& Attribution::touch(std::uint32_t owner,
                                           double score_delta) {
  sketch_update(owner, score_delta);
  if (const auto it = candidates_.find(owner); it != candidates_.end()) {
    return it->second;
  }
  if (candidates_.size() < top_k_) {
    return candidates_[owner];
  }
  // Space-saving admission: evict the current minimum only when this
  // owner's sketched total exceeds it; the newcomer inherits the evicted
  // score as `carry` (its rows become upper bounds, flagged approx).
  const double est = sketch_estimate(owner);
  if (est <= min_score_) return discard_;
  auto min_it = candidates_.begin();
  double min_sc = score(min_it->second);
  for (auto it = std::next(candidates_.begin()); it != candidates_.end();
       ++it) {
    if (const double sc = score(it->second); sc < min_sc) {
      min_sc = sc;
      min_it = it;
    }
  }
  min_score_ = min_sc;
  if (est <= min_sc) return discard_;
  candidates_.erase(min_it);
  Candidate& c = candidates_[owner];
  c.carry = min_sc;
  return c;
}

void Attribution::complete(Category cat, std::uint32_t unit, const char* name,
                           double /*start*/, double dur, std::uint64_t a,
                           std::uint64_t /*b*/) {
  if (cat != Category::kGpe) return;
  if (unit < tiles_.size()) tiles_[unit].busy += dur;
  // Only the top-level task span feeds per-vertex busy; traverse/body are
  // nested inside it and would double count.
  if (std::strcmp(name, "task") != 0) return;
  if (unit < tiles_.size()) ++tiles_[unit].tasks;
  const auto owner = static_cast<std::uint32_t>(a);
  Candidate& c = touch(owner, dur);
  c.busy += dur;
  ++c.tasks;
}

void Attribution::phase_begin(const char* /*name*/, double at) {
  if (!span_started_ || at < span_begin_) span_begin_ = at;
  span_started_ = true;
}

void Attribution::phase_end(const char* /*name*/, double at) {
  span_end_ = std::max(span_end_, at);
}

void Attribution::packet(std::uint32_t src_ep, std::uint32_t dst_ep,
                         std::uint32_t owner, std::uint32_t flits,
                         std::uint32_t hops, std::uint32_t payload_bytes) {
  const auto tile_of = [this](std::uint32_t ep) -> std::uint32_t {
    return ep < ep_to_tile_.size() ? ep_to_tile_[ep] : kNoTile;
  };
  // Charge the tile endpoint the packet touched; requests to memory are
  // charged at the source tile, responses at the destination tile.
  std::uint32_t tile = tile_of(src_ep);
  if (tile == kNoTile) tile = tile_of(dst_ep);
  if (tile != kNoTile && tile < tiles_.size()) {
    TileAttribution& t = tiles_[tile];
    t.flits += flits;
    t.flit_hops += std::uint64_t{flits} * hops;
    t.bytes += payload_bytes;
  }
  if (owner == kUnowned) {
    unattributed_flits_ += flits;
    return;
  }
  Candidate& c = touch(owner, static_cast<double>(flits));
  c.flits += flits;
  c.bytes += payload_bytes;
}

void Attribution::charge(Category cat, std::uint32_t unit, std::uint32_t owner,
                         double cycles) {
  if (cat == Category::kAgg && unit < tiles_.size()) {
    tiles_[unit].agg_busy += cycles;
  }
  if (owner == kUnowned) return;
  touch(owner, 0.0).agg_busy += cycles;
}

AttributionReport Attribution::report() const {
  AttributionReport rep;
  rep.top_k = top_k_;
  rep.span = span_started_ ? std::max(0.0, span_end_ - span_begin_) : 0.0;
  rep.unattributed_flits = unattributed_flits_;
  rep.tiles = tiles_;
  for (TileAttribution& t : rep.tiles) {
    rep.total_busy += t.busy;
    t.idle = std::max(0.0, rep.span - t.busy);
  }
  rep.vertices.reserve(candidates_.size());
  for (const auto& [owner, c] : candidates_) {
    VertexHotspot h;
    h.vertex = owner;
    h.busy = c.busy;
    h.agg_busy = c.agg_busy;
    h.tasks = c.tasks;
    h.flits = c.flits;
    h.bytes = c.bytes;
    h.approx = c.carry > 0.0;
    rep.vertices.push_back(h);
  }
  std::sort(rep.vertices.begin(), rep.vertices.end(),
            [](const VertexHotspot& a, const VertexHotspot& b) {
              if (a.busy != b.busy) return a.busy > b.busy;
              return a.vertex < b.vertex;
            });
  if (rep.vertices.size() > top_k_) rep.vertices.resize(top_k_);
  return rep;
}

}  // namespace gnna::trace
