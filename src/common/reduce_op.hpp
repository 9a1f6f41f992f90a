// Aggregation reduce operators (AGG: bank of 16 32-bit ALUs).
//
// The simulator times the AGG's reductions but carries no data values.
// What the timing model and the verifier need is each op's name and
// whether the hardware may apply it in arrival order ("only supports
// aggregation operations that are associative, which allows data to be
// aggregated in any order").
#pragma once

#include <cstdint>

namespace gnna {

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

}  // namespace gnna
