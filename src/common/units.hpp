// Physical-unit helpers: bytes, bandwidth, frequency, and the conversions
// between wall-clock time and cycles that the clock-sweep experiments
// (Fig 8) depend on.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace gnna {

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;

/// One NoC flit / DRAM access granule is 64 bytes throughout the design
/// (Fig 3: 64B-wide crossbar; Section V: 64B memory access granularity).
inline constexpr std::uint32_t kFlitBytes = 64;

/// Word size used for DNQ ready bits and AGG ALU lanes (32-bit fixed point).
inline constexpr std::uint32_t kWordBytes = 4;

/// Clock frequency in Hz with cycle<->time conversions.
class Frequency {
 public:
  constexpr Frequency() = default;
  constexpr explicit Frequency(double hz) : hz_(hz) {}

  static constexpr Frequency giga_hertz(double ghz) {
    return Frequency(ghz * 1e9);
  }

  [[nodiscard]] constexpr double hz() const { return hz_; }
  [[nodiscard]] constexpr double ghz() const { return hz_ / 1e9; }

  /// This frequency as a whole number of MHz (1.8 GHz: 1800), or nullopt
  /// when it is not one to within 1 Hz.
  [[nodiscard]] std::optional<std::uint64_t> whole_mhz() const {
    const double mhz = hz_ / 1e6;
    const double whole = std::round(mhz);
    if (!(whole >= 1.0) || std::abs(mhz - whole) > 1e-6) return std::nullopt;
    return static_cast<std::uint64_t>(whole);
  }

  /// Seconds represented by `cycles` at this frequency.
  [[nodiscard]] constexpr double cycles_to_seconds(double cycles) const {
    return cycles / hz_;
  }

  [[nodiscard]] constexpr double cycles_to_millis(double cycles) const {
    return cycles_to_seconds(cycles) * 1e3;
  }

  /// Cycles elapsed in `seconds` at this frequency (rounded up: an event
  /// `seconds` in the future cannot complete mid-cycle).
  [[nodiscard]] constexpr CycleCount seconds_to_cycles(double seconds) const {
    const double c = seconds * hz_;
    const auto floor_c = static_cast<CycleCount>(c);
    return (static_cast<double>(floor_c) < c) ? floor_c + 1 : floor_c;
  }

  [[nodiscard]] constexpr CycleCount nanos_to_cycles(double ns) const {
    return seconds_to_cycles(ns * 1e-9);
  }

 private:
  double hz_ = 1e9;
};

/// Memory / link bandwidth in bytes per second.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  constexpr explicit Bandwidth(double bytes_per_second)
      : bps_(bytes_per_second) {}

  static constexpr Bandwidth gb_per_s(double gb) { return Bandwidth(gb * 1e9); }

  [[nodiscard]] constexpr double bytes_per_second() const { return bps_; }
  [[nodiscard]] constexpr double gbps() const { return bps_ / 1e9; }

  /// Bytes transferable per cycle at clock `f`.
  [[nodiscard]] constexpr double bytes_per_cycle(Frequency f) const {
    return bps_ / f.hz();
  }

  /// Seconds to move `bytes` at this bandwidth.
  [[nodiscard]] constexpr double seconds_for(double bytes) const {
    return bytes / bps_;
  }

 private:
  double bps_ = 1e9;
};

/// Number of 64B flits needed to carry `bytes` of payload.
[[nodiscard]] constexpr std::uint32_t flits_for_bytes(std::uint64_t bytes) {
  return static_cast<std::uint32_t>((bytes + kFlitBytes - 1) / kFlitBytes);
}

}  // namespace gnna
