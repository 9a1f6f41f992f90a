#include "accel/addrmap.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace gnna::accel {
namespace {

TEST(AddressMap, RoundRobinByPage) {
  const AddressMap map({10, 11, 12}, 4096);
  EXPECT_EQ(map.endpoint_for(0), 10U);
  EXPECT_EQ(map.endpoint_for(4095), 10U);
  EXPECT_EQ(map.endpoint_for(4096), 11U);
  EXPECT_EQ(map.endpoint_for(8192), 12U);
  EXPECT_EQ(map.endpoint_for(3 * 4096), 10U);
}

struct Seg {
  EndpointId ep;
  Addr addr;
  std::uint64_t bytes;
};

std::vector<Seg> segments(const AddressMap& map, Addr addr,
                          std::uint64_t bytes) {
  std::vector<Seg> out;
  map.for_each_segment(addr, bytes, [&](EndpointId e, Addr a,
                                        std::uint64_t b) {
    out.push_back({e, a, b});
  });
  return out;
}

TEST(AddressMap, SingleSegmentWithinPage) {
  const AddressMap map({0, 1}, 4096);
  const auto segs = segments(map, 100, 2000);
  ASSERT_EQ(segs.size(), 1U);
  EXPECT_EQ(segs[0].ep, 0U);
  EXPECT_EQ(segs[0].addr, 100U);
  EXPECT_EQ(segs[0].bytes, 2000U);
}

TEST(AddressMap, SplitAtPageBoundary) {
  const AddressMap map({0, 1}, 4096);
  const auto segs = segments(map, 4000, 200);
  ASSERT_EQ(segs.size(), 2U);
  EXPECT_EQ(segs[0].ep, 0U);
  EXPECT_EQ(segs[0].bytes, 96U);
  EXPECT_EQ(segs[1].ep, 1U);
  EXPECT_EQ(segs[1].addr, 4096U);
  EXPECT_EQ(segs[1].bytes, 104U);
}

TEST(AddressMap, SegmentsCoverExactRangeOnce) {
  const AddressMap map({0, 1, 2}, 1024);
  const auto segs = segments(map, 500, 5000);
  std::uint64_t total = 0;
  Addr expect_next = 500;
  for (const auto& s : segs) {
    EXPECT_EQ(s.addr, expect_next);
    expect_next = s.addr + s.bytes;
    total += s.bytes;
  }
  EXPECT_EQ(total, 5000U);
}

TEST(AddressMap, ZeroBytesProducesNoSegments) {
  const AddressMap map({0}, 4096);
  EXPECT_TRUE(segments(map, 123, 0).empty());
}

TEST(AddressMap, SingleControllerNeverSplitsOwnership) {
  const AddressMap map({9}, 4096);
  for (const auto& s : segments(map, 0, 100000)) EXPECT_EQ(s.ep, 9U);
}

// A DNQ or AGG destination needs an endpoint; the error names the
// allocating call. Memory destinations are named by address alone.
TEST(Dest, CheckEndpointNamesTheUnit) {
  for (const Dest::Kind kind : {Dest::Kind::kDnqEntry, Dest::Kind::kAggEntry}) {
    const Dest d{.kind = kind};
    try {
      d.check_endpoint("Agg::allocate");
      ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "Agg::allocate: unit destination with invalid endpoint");
    }
    EXPECT_NO_THROW(Dest({.kind = kind, .ep = 3}).check_endpoint("x"));
  }
  EXPECT_NO_THROW(Dest{.kind = Dest::Kind::kMemWrite}.check_endpoint("x"));
  EXPECT_NO_THROW(Dest{}.check_endpoint("x"));
}

}  // namespace
}  // namespace gnna::accel
