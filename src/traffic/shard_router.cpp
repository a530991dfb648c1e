#include "traffic/shard_router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace vl::traffic {

std::uint64_t ShardRouter::hash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ShardRouter::ShardRouter(int shards) : shards_(shards) {
  assert(shards_ >= 1);
  rebuild_ring();
}

void ShardRouter::rebuild_ring() {
  ring_.clear();
  ring_.reserve(static_cast<std::size_t>(shards_) * kVnodes);
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(shards_); ++s)
    for (std::uint32_t r = 0; r < kVnodes; ++r)
      ring_.emplace_back(hash((std::uint64_t{s} << 32) | r), s);
  std::sort(ring_.begin(), ring_.end());

  // 8 buckets per ring point, so a lookup's scan from its bucket's first
  // index almost always stops at once.
  const std::size_t buckets = std::bit_ceil(8 * ring_.size());
  bucket_shift_ = 64 - std::countr_zero(buckets);
  bucket_.resize(buckets);
  std::uint32_t i = 0;
  const auto n = static_cast<std::uint32_t>(ring_.size());
  for (std::size_t b = 0; b < buckets; ++b) {
    while (i < n && (ring_[i].first >> bucket_shift_) < b) ++i;
    bucket_[b] = i;
  }
}

int ShardRouter::owner(std::uint64_t point) const {
  // Every ring point before the bucket's first index lies in a lower
  // bucket, so below `point`: the scan stops at upper_bound's answer.
  std::size_t i = bucket_[point >> bucket_shift_];
  while (i < ring_.size() && ring_[i].first <= point) ++i;
  if (i == ring_.size()) i = 0;  // wrap past the top
  return static_cast<int>(ring_[i].second);
}

int ShardRouter::shard_for(std::uint64_t tenant) const {
  if (!overrides_.empty()) {
    const auto it = overrides_.find(tenant);
    if (it != overrides_.end()) return static_cast<int>(it->second);
  }
  return owner(hash(tenant));
}

void ShardRouter::add_shard() {
  ++shards_;
  rebuild_ring();  // existing points are unchanged; only new arcs move
}

std::vector<std::uint64_t> ShardRouter::census(
    std::uint64_t population) const {
  std::vector<std::uint64_t> n(static_cast<std::size_t>(shards_), 0);
  for (std::uint64_t t = 0; t < population; ++t)
    ++n[static_cast<std::size_t>(shard_for(t))];
  return n;
}

std::size_t ShardRouter::rebalance(const std::vector<std::uint64_t>& load,
                                   std::uint64_t population, double ratio,
                                   std::size_t max_moves) {
  assert(load.size() == static_cast<std::size_t>(shards_));
  std::uint64_t total = 0;
  for (const std::uint64_t l : load) total += l;
  if (total == 0 || shards_ < 2) return 0;
  const double mean = static_cast<double>(total) / shards_;

  // Hottest / coldest with lowest-id tie-break: deterministic for the
  // simulations that call this from a barrier hook.
  std::size_t hot = 0, cold = 0;
  for (std::size_t s = 1; s < load.size(); ++s) {
    if (load[s] > load[hot]) hot = s;
    if (load[s] < load[cold]) cold = s;
  }
  if (static_cast<double>(load[hot]) <= ratio * mean || hot == cold) return 0;

  // One population walk: count the hot shard's tenants and keep its lowest
  // ids, enough for any move. Then move tenants in proportion to the hot
  // shard's excess over the mean, assuming load tracks population there.
  std::uint64_t hot_tenants = 0;
  std::vector<std::uint64_t> movable;
  for (std::uint64_t t = 0; t < population; ++t) {
    if (shard_for(t) != static_cast<int>(hot)) continue;
    ++hot_tenants;
    if (movable.size() < max_moves) movable.push_back(t);
  }
  const double excess_frac =
      (static_cast<double>(load[hot]) - mean) / static_cast<double>(load[hot]);
  const std::size_t target = std::min(
      static_cast<std::size_t>(static_cast<double>(hot_tenants) * excess_frac),
      max_moves);
  for (std::size_t k = 0; k < target; ++k)
    overrides_[movable[k]] = static_cast<std::uint32_t>(cold);
  return target;
}

}  // namespace vl::traffic
