#include "dataflow/spatial.hpp"

#include <gtest/gtest.h>

namespace gnna::dataflow {
namespace {

const SpatialArrayConfig kArray = SpatialArrayConfig::eyeriss();
const Frequency kClk = Frequency::giga_hertz(2.4);
const Bandwidth kBw = Bandwidth::gb_per_s(68.0);

TEST(SpatialArrayConfig, TableIValues) {
  EXPECT_EQ(kArray.num_pes(), 182U);
  EXPECT_EQ(kArray.pe_rows, 13U);
  EXPECT_EQ(kArray.pe_cols, 14U);
  EXPECT_EQ(kArray.register_file_bytes, 512U);
  EXPECT_EQ(kArray.global_buffer_bytes, 108U * 1024U);
  EXPECT_EQ(kArray.word_bytes, 4U);
}

TEST(MatmulShape, MacCounts) {
  const MatmulShape s{10, 20, 30, 0.5};
  EXPECT_EQ(s.total_macs(), 6000U);
  EXPECT_EQ(s.useful_macs(), 3000U);
}

TEST(Mapper, OutputStationaryCycleFormula) {
  const Mapper m(kArray);
  // 13x14 outputs in one pass, K streamed.
  const MappingStats st =
      m.map_with({13, 100, 14, 1.0}, Dataflow::kOutputStationary);
  EXPECT_EQ(st.compute_cycles, 100U);
  // Full PE occupancy: utilization 1.
  EXPECT_DOUBLE_EQ(st.pe_utilization_total(kArray), 1.0);
}

TEST(Mapper, ReductionSpreadCycleFormula) {
  const Mapper m(kArray);
  const MappingStats st =
      m.map_with({4, 364, 5, 1.0}, Dataflow::kReductionSpread);
  // ceil(364/182) = 2 cycles per output, 20 outputs.
  EXPECT_EQ(st.compute_cycles, 40U);
}

TEST(Mapper, WeightStationaryCycleFormula) {
  const Mapper m(kArray);
  const MappingStats st =
      m.map_with({50, 13, 14, 1.0}, Dataflow::kWeightStationary);
  // One weight tile pass, all 50 inputs stream through.
  EXPECT_EQ(st.compute_cycles, 50U);
}

TEST(Mapper, UtilizationNeverExceedsOne) {
  const Mapper m(kArray);
  for (const Dataflow df :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
        Dataflow::kReductionSpread}) {
    for (const MatmulShape s :
         {MatmulShape{1, 5, 4096, 1.0}, MatmulShape{1000, 1000, 16, 1.0},
          MatmulShape{1, 1, 1, 1.0}, MatmulShape{17, 31, 3, 1.0}}) {
      const MappingStats st = m.map_with(s, df);
      EXPECT_LE(st.pe_utilization_total(kArray), 1.0 + 1e-9)
          << to_string(df);
      EXPECT_GE(st.compute_cycles, 1U);
    }
  }
}

TEST(Mapper, UsefulNeverExceedsTotal) {
  const Mapper m(kArray);
  const MappingStats st = m.map({1000, 1000, 16, 0.001}, kBw, kClk);
  EXPECT_LE(st.useful_macs, st.total_macs);
  EXPECT_LE(st.dram_bytes_useful, st.dram_bytes_total);
  EXPECT_LE(st.pe_utilization_useful(kArray),
            st.pe_utilization_total(kArray));
}

TEST(Mapper, DenseWeightsFullyUseful) {
  const Mapper m(kArray);
  const MappingStats st = m.map({64, 64, 64, 1.0}, kBw, kClk);
  EXPECT_EQ(st.useful_macs, st.total_macs);
  EXPECT_EQ(st.dram_bytes_useful, st.dram_bytes_total);
}

TEST(Mapper, SearchPicksNoWorseThanEachCandidate) {
  const Mapper m(kArray);
  const MatmulShape s{2708, 2708, 16, 0.00074};
  const MappingStats best = m.map(s, kBw, kClk);
  for (const Dataflow df :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
        Dataflow::kReductionSpread}) {
    EXPECT_LE(best.latency_cycles(kClk, kBw),
              m.map_with(s, df).latency_cycles(kClk, kBw));
  }
}

TEST(MappingStats, LatencyUnlimitedEqualsCompute) {
  const Mapper m(kArray);
  const MappingStats st = m.map({100, 100, 100, 1.0}, std::nullopt, kClk);
  EXPECT_EQ(st.latency_cycles(kClk, std::nullopt), st.compute_cycles);
}

TEST(MappingStats, LatencyIsMaxOfComputeAndMemory) {
  MappingStats st;
  st.compute_cycles = 1000;
  st.dram_bytes_total = 1'000'000;  // ~35k cycles at 68 GB/s, 2.4 GHz
  const std::uint64_t lat = st.latency_cycles(kClk, kBw);
  const std::uint64_t mem_cycles =
      kClk.seconds_to_cycles(kBw.seconds_for(1e6));
  EXPECT_EQ(lat, mem_cycles);
  st.dram_bytes_total = 64;
  EXPECT_EQ(st.latency_cycles(kClk, kBw), 1000U);
}

TEST(MappingStats, BandwidthLimitNeverFasterThanUnlimited) {
  const Mapper m(kArray);
  for (const MatmulShape s :
       {MatmulShape{19717, 19717, 16, 0.000114},
        MatmulShape{2708, 1433, 16, 1.0}, MatmulShape{1, 128, 4096, 1.0}}) {
    const MappingStats st = m.map(s, kBw, kClk);
    EXPECT_GE(st.latency_cycles(kClk, kBw),
              st.latency_cycles(kClk, std::nullopt));
  }
}

TEST(MappingStats, Accumulation) {
  MappingStats a;
  a.total_macs = 10;
  a.compute_cycles = 5;
  a.dram_bytes_total = 100;
  MappingStats b = a;
  a += b;
  EXPECT_EQ(a.total_macs, 20U);
  EXPECT_EQ(a.compute_cycles, 10U);
  EXPECT_EQ(a.dram_bytes_total, 200U);
}

TEST(Mapper, ComputeCyclesMonotonicInWork) {
  const Mapper m(kArray);
  const MappingStats small = m.map({10, 10, 10, 1.0}, std::nullopt, kClk);
  const MappingStats big = m.map({100, 100, 100, 1.0}, std::nullopt, kClk);
  EXPECT_LT(small.compute_cycles, big.compute_cycles);
}

TEST(Mapper, TrafficIncludesAllOperandsOnce) {
  const Mapper m(kArray);
  // Tiny problem: everything fits, each operand moves exactly once.
  const MatmulShape s{8, 8, 8, 1.0};
  const MappingStats st = m.map(s, kBw, kClk);
  const std::uint64_t min_traffic = (8 * 8 + 8 * 8 + 8 * 8) * 4;
  EXPECT_EQ(st.dram_bytes_total, min_traffic);
}

TEST(Mapper, DegenerateShapesAreSafe) {
  const Mapper m(kArray);
  for (const Dataflow df :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
        Dataflow::kReductionSpread}) {
    const MappingStats st = m.map_with({0, 0, 0, 1.0}, df);
    EXPECT_GE(st.compute_cycles, 1U);  // clamped to 1x1x1
  }
}

TEST(Mapper, MapWithRejectsShapesAboveTheCap) {
  // Above 2^48 MACs the traffic sums wrap: output-stationary divided by
  // mt + nt == 0 for m = n = 2^63, and ceil_div(m, 13) wrapped for m near
  // 2^64. Such shapes are refused; the cap itself still maps.
  const Mapper m(kArray);
  const std::uint64_t half = std::uint64_t{1} << 63;
  const std::uint64_t big = ~std::uint64_t{0};
  for (const MatmulShape& s :
       {MatmulShape{half, 1, half, 1.0}, MatmulShape{big, 1, 1, 1.0},
        MatmulShape{1, 1, big, 1.0}, MatmulShape{kMaxShapeMacs + 1, 1, 1, 1.0},
        MatmulShape{1 << 24, 1 << 24, 2, 1.0}}) {
    EXPECT_FALSE(within_mac_cap(s));
    for (const Dataflow df :
         {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
          Dataflow::kReductionSpread}) {
      EXPECT_THROW((void)m.map_with(s, df), std::invalid_argument);
    }
  }
  for (const MatmulShape& s :
       {MatmulShape{kMaxShapeMacs, 1, 1, 1.0},
        MatmulShape{1 << 24, 0, 1 << 24, 1.0}}) {
    for (const Dataflow df :
         {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
          Dataflow::kReductionSpread}) {
      const MappingStats st = m.map_with(s, df);
      EXPECT_EQ(st.total_macs, kMaxShapeMacs);
      EXPECT_GE(st.compute_cycles, kMaxShapeMacs / kArray.num_pes());
    }
  }
}

TEST(Dataflow, ToString) {
  EXPECT_EQ(to_string(Dataflow::kOutputStationary), "output-stationary");
  EXPECT_EQ(to_string(Dataflow::kWeightStationary), "weight-stationary");
  EXPECT_EQ(to_string(Dataflow::kReductionSpread), "reduction-spread");
}

}  // namespace
}  // namespace gnna::dataflow
