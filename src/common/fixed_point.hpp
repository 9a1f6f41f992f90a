// 32-bit fixed-point arithmetic matching the accelerator datapath
// (Table I: 32-bit fixed point; AGG: bank of 16 32-bit ALUs).
//
// The functional GNN executor runs in float for numerical comparisons, but
// the AGG model aggregates in Fixed32 so tests can assert bit-exact
// order-independence of associative reductions — the property the paper's
// AGG design relies on ("only supports aggregation operations that are
// associative, which allows data to be aggregated in any order").
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>

namespace gnna {

/// Q16.16 signed fixed point with saturating arithmetic.
class Fixed32 {
 public:
  static constexpr int kFracBits = 16;
  static constexpr std::int64_t kOne = std::int64_t{1} << kFracBits;

  constexpr Fixed32() = default;

  static constexpr Fixed32 from_raw(std::int32_t raw) {
    Fixed32 f;
    f.raw_ = raw;
    return f;
  }

  static constexpr Fixed32 from_int(std::int32_t v) {
    return from_raw(saturate(static_cast<std::int64_t>(v) << kFracBits));
  }

  static constexpr Fixed32 from_double(double v) {
    // Round-to-nearest keeps conversion error <= 2^-17.
    const double scaled = v * static_cast<double>(kOne);
    const double rounded = scaled >= 0 ? scaled + 0.5 : scaled - 0.5;
    return from_raw(saturate(static_cast<std::int64_t>(rounded)));
  }

  [[nodiscard]] constexpr std::int32_t raw() const { return raw_; }
  [[nodiscard]] constexpr double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }

  friend constexpr Fixed32 operator+(Fixed32 a, Fixed32 b) {
    return from_raw(saturate(static_cast<std::int64_t>(a.raw_) + b.raw_));
  }
  friend constexpr Fixed32 operator-(Fixed32 a, Fixed32 b) {
    return from_raw(saturate(static_cast<std::int64_t>(a.raw_) - b.raw_));
  }
  friend constexpr Fixed32 operator*(Fixed32 a, Fixed32 b) {
    const std::int64_t p =
        (static_cast<std::int64_t>(a.raw_) * b.raw_) >> kFracBits;
    return from_raw(saturate(p));
  }

  friend constexpr bool operator==(Fixed32 a, Fixed32 b) = default;
  friend constexpr auto operator<=>(Fixed32 a, Fixed32 b) {
    return a.raw_ <=> b.raw_;
  }

  [[nodiscard]] static constexpr Fixed32 min_value() {
    return from_raw(std::numeric_limits<std::int32_t>::min());
  }
  [[nodiscard]] static constexpr Fixed32 max_value() {
    return from_raw(std::numeric_limits<std::int32_t>::max());
  }

 private:
  static constexpr std::int32_t saturate(std::int64_t v) {
    constexpr std::int64_t lo = std::numeric_limits<std::int32_t>::min();
    constexpr std::int64_t hi = std::numeric_limits<std::int32_t>::max();
    return static_cast<std::int32_t>(std::clamp(v, lo, hi));
  }

  std::int32_t raw_ = 0;
};

/// Reduction operators a model may request for its aggregation stage.
/// The AGG hardware executes only the associative ones ("the AGG only
/// supports aggregation operations that are associative"); kMean is a
/// streaming mean, which needs a running element count and is therefore
/// NOT order-independent on the 16-ALU bank — the static verifier
/// (accel::verify, GV003) rejects programs that ask for it.
enum class ReduceOp : std::uint8_t {
  kSum,
  kMax,
  kMin,
  kMean,
};

/// The op's GNNA-IR spelling ("sum", "max", ...), also used in diagnostics.
[[nodiscard]] constexpr const char* reduce_op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMean: return "mean";
  }
  return "?";
}

/// Whether the AGG ALU bank can execute `op` in arrival order.
[[nodiscard]] constexpr bool is_associative(ReduceOp op) {
  return op == ReduceOp::kSum || op == ReduceOp::kMax || op == ReduceOp::kMin;
}

[[nodiscard]] constexpr Fixed32 apply_reduce(ReduceOp op, Fixed32 a,
                                             Fixed32 b) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kMean:  // accumulate; the divide would need a count
      return a + b;
    case ReduceOp::kMax:
      return b > a ? b : a;
    case ReduceOp::kMin:
      return b < a ? b : a;
  }
  return a;
}

/// Identity element for each reduction so the AGG can initialize entries.
[[nodiscard]] constexpr Fixed32 reduce_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kMean:
      return Fixed32{};
    case ReduceOp::kMax:
      return Fixed32::min_value();
    case ReduceOp::kMin:
      return Fixed32::max_value();
  }
  return Fixed32{};
}

}  // namespace gnna
