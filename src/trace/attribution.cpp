#include "trace/attribution.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gnna::trace {

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
                         std::size_t num_owners)
    : ep_to_tile_(std::move(ep_to_tile)),
      tiles_(num_tiles),
      owners_(num_owners, VertexHotspot{kUnowned}) {}

VertexHotspot& Attribution::row(std::uint32_t owner) {
  assert(owner < owners_.size() && "attribution owner past the vertex count");
  VertexHotspot& r = owners_[owner];
  r.vertex = owner;
  return r;
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
  VertexHotspot& r = row(static_cast<std::uint32_t>(a));
  r.busy += dur;
  ++r.tasks;
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
  VertexHotspot& r = row(owner);
  r.flits += flits;
  r.bytes += payload_bytes;
}

void Attribution::charge(Category cat, std::uint32_t unit, std::uint32_t owner,
                         double cycles) {
  if (cat == Category::kAgg && unit < tiles_.size()) {
    tiles_[unit].agg_busy += cycles;
  }
  if (owner == kUnowned) return;
  row(owner).agg_busy += cycles;
}

AttributionReport Attribution::report() const {
  AttributionReport rep;
  rep.span = span_started_ ? std::max(0.0, span_end_ - span_begin_) : 0.0;
  rep.unattributed_flits = unattributed_flits_;
  rep.tiles = tiles_;
  for (const TileAttribution& t : rep.tiles) rep.total_busy += t.busy;
  for (const VertexHotspot& v : owners_) {
    if (v.vertex != kUnowned) rep.vertices.push_back(v);
  }
  std::sort(rep.vertices.begin(), rep.vertices.end(),
            [](const VertexHotspot& a, const VertexHotspot& b) {
              if (a.busy != b.busy) return a.busy > b.busy;
              return a.vertex < b.vertex;
            });
  return rep;
}

}  // namespace gnna::trace
