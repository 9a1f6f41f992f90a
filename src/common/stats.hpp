// Lightweight statistics collection used by every simulated component.
//
// Components expose named Counter / Accumulator members; the simulator
// harvests them into reports at the end of a run. Neither allocates.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace gnna {

/// Monotonic event counter.
class Counter {
 public:
  constexpr void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  constexpr void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Running mean / min / max / sum of a real-valued sample stream.
/// Variance uses Welford's online algorithm: the naive sum-of-squares
/// formula catastrophically cancels for large-magnitude samples (e.g.
/// cycle timestamps), where (sum_sq - sum^2/n) subtracts two nearly equal
/// huge numbers and loses every significant digit of the variance.
///
/// Samples may carry a weight (add_weighted): mean()/stddev()/sum() are
/// then weight-denominated, which turns a change-sampled series into a
/// time-weighted one when the weight is "cycles spent at this value".
/// add(x) is exactly add_weighted(x, 1.0) — for unit weights every result
/// is bit-identical to the unweighted accumulator.
class Accumulator {
 public:
  constexpr void add(double x) { add_weighted(x, 1.0); }

  /// Weighted sample. A zero (or negative) weight updates only the
  /// min/max extrema and the sample count — useful to keep max() exact
  /// for a change-sampled series whose final value never accrues time.
  constexpr void add_weighted(double x, double w) {
    count_ += 1;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    if (w <= 0.0) return;
    sum_ += x * w;
    wsum_ += w;
    const double delta = x - mean_;
    mean_ += delta * w / wsum_;
    m2_ += w * delta * (x - mean_);
  }

  [[nodiscard]] constexpr std::uint64_t count() const { return count_; }
  /// Total weight observed (== count() minus zero-weight samples when all
  /// weights are 1.0).
  [[nodiscard]] constexpr double weight() const { return wsum_; }
  [[nodiscard]] constexpr double sum() const { return sum_; }
  [[nodiscard]] constexpr double mean() const {
    return wsum_ == 0.0 ? 0.0 : mean_;
  }
  [[nodiscard]] double stddev() const {
    if (wsum_ < 2.0) return 0.0;
    const double var = m2_ / (wsum_ - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }
  [[nodiscard]] constexpr double min() const {
    return count_ == 0 ? 0.0 : min_;
  }
  [[nodiscard]] constexpr double max() const {
    return count_ == 0 ? 0.0 : max_;
  }

  constexpr void reset() { *this = Accumulator{}; }

 private:
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the running mean
  double wsum_ = 0.0;
  std::uint64_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace gnna
