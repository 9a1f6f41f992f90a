#include "common/units.hpp"

#include <gtest/gtest.h>

namespace gnna {
namespace {

TEST(Frequency, GigaHertzRoundTrip) {
  const Frequency f = Frequency::giga_hertz(2.4);
  EXPECT_DOUBLE_EQ(f.ghz(), 2.4);
  EXPECT_DOUBLE_EQ(f.hz(), 2.4e9);
}

TEST(Frequency, CyclesToSeconds) {
  const Frequency f = Frequency::giga_hertz(1.0);
  EXPECT_DOUBLE_EQ(f.cycles_to_seconds(1e9), 1.0);
  EXPECT_DOUBLE_EQ(f.cycles_to_millis(1e6), 1.0);
}

TEST(Frequency, SecondsToCyclesRoundsUp) {
  const Frequency f = Frequency::giga_hertz(1.0);
  EXPECT_EQ(f.seconds_to_cycles(1e-9), 1U);
  EXPECT_EQ(f.seconds_to_cycles(1.5e-9), 2U);
  EXPECT_EQ(f.seconds_to_cycles(0.0), 0U);
}

TEST(Frequency, NanosToCycles) {
  const Frequency f = Frequency::giga_hertz(2.4);
  // 20 ns at 2.4 GHz = 48 cycles.
  EXPECT_EQ(f.nanos_to_cycles(20.0), 48U);
}

TEST(Bandwidth, GbPerS) {
  const Bandwidth b = Bandwidth::gb_per_s(68.0);
  EXPECT_DOUBLE_EQ(b.gbps(), 68.0);
  EXPECT_DOUBLE_EQ(b.bytes_per_second(), 68e9);
}

TEST(Bandwidth, BytesPerCycle) {
  const Bandwidth b = Bandwidth::gb_per_s(68.0);
  const Frequency f = Frequency::giga_hertz(2.4);
  EXPECT_NEAR(b.bytes_per_cycle(f), 68.0 / 2.4, 1e-9);
}

TEST(Bandwidth, SecondsFor) {
  const Bandwidth b = Bandwidth::gb_per_s(1.0);
  EXPECT_DOUBLE_EQ(b.seconds_for(1e9), 1.0);
}

TEST(Units, FlitsForBytes) {
  EXPECT_EQ(flits_for_bytes(0), 0U);
  EXPECT_EQ(flits_for_bytes(1), 1U);
  EXPECT_EQ(flits_for_bytes(64), 1U);
  EXPECT_EQ(flits_for_bytes(65), 2U);
  EXPECT_EQ(flits_for_bytes(2000), 32U);  // Pubmed feature vector
}

TEST(Units, Constants) {
  EXPECT_EQ(kFlitBytes, 64U);
  EXPECT_EQ(kWordBytes, 4U);
  EXPECT_EQ(kKiB, 1024U);
  EXPECT_EQ(kMiB, 1024U * 1024U);
}

}  // namespace
}  // namespace gnna
