#include "graph/dataset_cache.hpp"

namespace gnna::graph {

std::shared_ptr<const Dataset> DatasetCache::get(DatasetId id,
                                                 std::uint64_t seed) {
  const Key key{id, seed};
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  auto ds = std::make_shared<const Dataset>(make_dataset(id, seed));
  entries_.emplace(key, ds);
  return ds;
}

std::size_t DatasetCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t DatasetCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t DatasetCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace gnna::graph
