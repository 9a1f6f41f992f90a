// Batch-manifest parsing for `gnnasim --batch <file>` (and the manifests
// gnnaverify lints).
//
// One run per line; blank lines and `#` comments are skipped. Each line is
// whitespace-separated `key=value` tokens:
//
//   benchmark=GCN/Cora config=gpu-iso-bw clock=1.2 threads=32
//   benchmark=GAT/Cora partition=block seed=7 repeat=4 verify=0
//   benchmark=GCN/Cora mem_scheduler=frfcfs mem_banks=8 mem_row_bytes=2048
//   benchmark=GCN/Cora program=progs/gcn_cora.gnna
//
// `benchmark` is required (with `program=` it names the dataset the
// program runs against); `repeat=N` expands the line into N identical
// runs. Every other key is a run option (sim/options.hpp, listed by
// `gnnasim --help-batch`) that defaults to the caller's command line; mem_*
// and tile_* keys override the line's config wherever they appear. Unknown
// keys and bad values are errors with the line number in the message.
// Paths cannot contain whitespace.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "sim/options.hpp"

namespace gnna::sim {

/// Parse `in` into run requests. Each line starts from `defaults` (its
/// workload fields are ignored; each line names its own benchmark) with
/// `options` (minus benchmark and program) under the line's own tokens.
/// Throws std::invalid_argument with "<source>:<line>: <reason>" on any
/// malformed line.
[[nodiscard]] std::vector<RunRequest> parse_batch_manifest(
    std::istream& in, const RunRequest& defaults,
    const std::string& source = "manifest", const RunOptions& options = {});

/// Points `trace`'s output files at run `index`'s own copies, so that the
/// runs of a batch never share one: "t.json" becomes "t.run3.json" (the
/// suffix goes before the extension, if any); unset paths stay unset.
void per_run_paths(accel::TraceOptions& trace, std::size_t index);

}  // namespace gnna::sim
