#include "dataflow/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace gnna::dataflow {
namespace {

[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a,
                                               std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Candidate tile sizes for one dimension: multiples of `step` by powers of
/// two, clamped to `limit`, always including `limit` itself. Doubling
/// stops once it would pass `limit`, before `t` can wrap.
std::vector<std::uint64_t> tile_candidates(std::uint64_t step,
                                           std::uint64_t limit) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t t = step; t < limit; t *= 2) {
    out.push_back(t);
    if (t > limit / 2) break;
  }
  out.push_back(limit);
  return out;
}

}  // namespace

std::string to_string(Dataflow df) {
  switch (df) {
    case Dataflow::kOutputStationary:
      return "output-stationary";
    case Dataflow::kWeightStationary:
      return "weight-stationary";
    case Dataflow::kReductionSpread:
      return "reduction-spread";
  }
  return "unknown";
}

double MappingStats::pe_utilization_useful(
    const SpatialArrayConfig& cfg) const {
  if (compute_cycles == 0) return 0.0;
  return static_cast<double>(useful_macs) /
         (static_cast<double>(compute_cycles) * cfg.num_pes());
}

double MappingStats::pe_utilization_total(
    const SpatialArrayConfig& cfg) const {
  if (compute_cycles == 0) return 0.0;
  return static_cast<double>(total_macs) /
         (static_cast<double>(compute_cycles) * cfg.num_pes());
}

std::uint64_t MappingStats::latency_cycles(Frequency clk,
                                           std::optional<Bandwidth> bw) const {
  if (!bw.has_value()) return compute_cycles;
  const double mem_seconds =
      bw->seconds_for(static_cast<double>(dram_bytes_total));
  const std::uint64_t mem_cycles = clk.seconds_to_cycles(mem_seconds);
  return std::max(compute_cycles, mem_cycles);
}

MappingStats& MappingStats::operator+=(const MappingStats& other) {
  total_macs += other.total_macs;
  useful_macs += other.useful_macs;
  compute_cycles += other.compute_cycles;
  dram_bytes_total += other.dram_bytes_total;
  dram_bytes_weights += other.dram_bytes_weights;
  dram_bytes_useful += other.dram_bytes_useful;
  return *this;
}

MappingStats Mapper::map_with(const MatmulShape& s, Dataflow df) const {
  const std::uint64_t m = std::max<std::uint64_t>(1, s.m);
  const std::uint64_t k = std::max<std::uint64_t>(1, s.k);
  const std::uint64_t n = std::max<std::uint64_t>(1, s.n);
  const std::uint64_t pes = cfg_.num_pes();
  const std::uint64_t word = cfg_.word_bytes;
  const std::uint64_t buf_words = cfg_.global_buffer_bytes / word;

  MappingStats st;
  st.dataflow = df;
  st.total_macs = m * k * n;
  st.useful_macs = static_cast<std::uint64_t>(
      static_cast<double>(st.total_macs) * s.weight_density);

  const std::uint64_t in_bytes = m * k * word;
  const std::uint64_t w_bytes = k * n * word;
  const std::uint64_t out_bytes = m * n * word;

  switch (df) {
    case Dataflow::kOutputStationary: {
      // Each PE owns one output; the array covers a pe_rows x pe_cols output
      // tile per pass and streams the full K reduction through it.
      st.compute_cycles =
          ceil_div(m, cfg_.pe_rows) * ceil_div(n, cfg_.pe_cols) * k;
      // Tile search: input tile m_t*k_t, weight tile k_t*n_t, psum tile
      // m_t*n_t must co-reside in the global buffer. Inputs are re-read once
      // per output-column tile, weights once per output-row tile.
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t best_w = 0;
      for (const std::uint64_t mt : tile_candidates(cfg_.pe_rows, m)) {
        for (const std::uint64_t nt : tile_candidates(cfg_.pe_cols, n)) {
          // Largest k_t that fits alongside the psum tile.
          const std::uint64_t psum_words = mt * nt;
          if (psum_words >= buf_words) continue;
          const std::uint64_t kt =
              std::min<std::uint64_t>(k, (buf_words - psum_words) / (mt + nt));
          if (kt == 0) continue;
          const std::uint64_t w_traffic = w_bytes * ceil_div(m, mt);
          const std::uint64_t traffic =
              in_bytes * ceil_div(n, nt) + w_traffic + out_bytes;
          if (traffic < best) {
            best = traffic;
            best_w = w_traffic;
          }
        }
      }
      if (best == std::numeric_limits<std::uint64_t>::max()) {
        // Degenerate: nothing fits; stream everything per pass.
        best = in_bytes * n + w_bytes * m + out_bytes;
        best_w = w_bytes * m;
      }
      st.dram_bytes_total = best;
      st.dram_bytes_weights = best_w;
      break;
    }
    case Dataflow::kWeightStationary: {
      // A k_t x n_t weight tile is pinned across the PEs; all M inputs
      // stream past it. Weights are read exactly once; partial sums spill
      // when the reduction spans multiple weight tiles.
      const std::uint64_t kt = std::min<std::uint64_t>(k, cfg_.pe_rows);
      const std::uint64_t nt = std::min<std::uint64_t>(n, cfg_.pe_cols);
      const std::uint64_t passes = ceil_div(k, kt) * ceil_div(n, nt);
      // One input row enters per cycle; each pass streams all M rows.
      st.compute_cycles = passes * m;
      const std::uint64_t k_passes = ceil_div(k, kt);
      // Psums for an m-chunk stay in the buffer if they fit (a third of it).
      const std::uint64_t psum_budget_words = buf_words / 3;
      const bool psum_resident = m * nt <= psum_budget_words;
      const std::uint64_t psum_traffic =
          psum_resident || k_passes <= 1
              ? 0
              : 2 * (k_passes - 1) * out_bytes;
      st.dram_bytes_total =
          w_bytes + in_bytes * ceil_div(n, nt) + out_bytes + psum_traffic;
      st.dram_bytes_weights = w_bytes;
      break;
    }
    case Dataflow::kReductionSpread: {
      // The whole array forms one adder tree over K: each output element
      // takes ceil(K / PEs) cycles.
      st.compute_cycles = m * n * ceil_div(k, pes);
      // Two buffer strategies; take the cheaper. (a) Keep a block of n_t
      // weight columns (k * n_t words) resident in half the buffer: weights
      // stream once, each input row is re-read once per column block.
      const std::uint64_t nt = std::clamp<std::uint64_t>(
          buf_words / 2 / std::max<std::uint64_t>(k, 1), 1, n);
      const std::uint64_t variant_a =
          in_bytes * ceil_div(n, nt) + w_bytes + out_bytes;
      // (b) Keep an input chunk (m x k_t words) resident instead: inputs
      // and weights stream once but partial sums spill per k-chunk.
      const std::uint64_t kt = std::clamp<std::uint64_t>(
          buf_words / 2 / std::max<std::uint64_t>(m, 1), 1, k);
      const std::uint64_t k_passes = ceil_div(k, kt);
      const std::uint64_t variant_b =
          in_bytes + w_bytes + out_bytes +
          (k_passes > 1 ? 2 * (k_passes - 1) * out_bytes : 0);
      st.dram_bytes_total = std::min(variant_a, variant_b);
      st.dram_bytes_weights = w_bytes;
      break;
    }
  }

  // Useful traffic: dense inputs/outputs/psums are all real data; only the
  // weight stream shrinks with sparsity (nonzero entries of the adjacency).
  const std::uint64_t dense_traffic =
      st.dram_bytes_total - st.dram_bytes_weights;
  st.dram_bytes_useful =
      dense_traffic +
      static_cast<std::uint64_t>(
          static_cast<double>(st.dram_bytes_weights) * s.weight_density);
  return st;
}

MappingStats Mapper::map(const MatmulShape& shape, std::optional<Bandwidth> bw,
                         Frequency clk) const {
  MappingStats best;
  bool first = true;
  for (const Dataflow df :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
        Dataflow::kReductionSpread}) {
    const MappingStats st = map_with(shape, df);
    if (first || st.latency_cycles(clk, bw) < best.latency_cycles(clk, bw) ||
        (st.latency_cycles(clk, bw) == best.latency_cycles(clk, bw) &&
         st.compute_cycles < best.compute_cycles)) {
      best = st;
      first = false;
    }
  }
  return best;
}

}  // namespace gnna::dataflow
