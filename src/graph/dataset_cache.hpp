// Content-keyed cache of generated datasets.
//
// make_dataset() is deterministic in (DatasetId, seed), so two requests
// with the same key always denote bit-identical data — the cache hands out
// one shared immutable instance instead of regenerating it. This is what
// makes repeated runs of the same benchmark (clock sweeps, batch reruns)
// near-free on the input side.
//
// Thread-safe: concurrent get() calls may come from BatchRunner workers.
// The cache mutex is held while a missing dataset is generated, so at most
// one generation per key ever happens (concurrent requests for other keys
// briefly queue behind it; dataset generation is milliseconds).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "graph/dataset.hpp"

namespace gnna::graph {

class DatasetCache {
 public:
  /// The dataset for (id, seed): cached if present, generated (and kept)
  /// otherwise. The returned dataset is immutable and outlives the cache
  /// entry for as long as the caller holds the pointer.
  [[nodiscard]] std::shared_ptr<const Dataset> get(DatasetId id,
                                                   std::uint64_t seed);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  using Key = std::pair<DatasetId, std::uint64_t>;

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const Dataset>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace gnna::graph
