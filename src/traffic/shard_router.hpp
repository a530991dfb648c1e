#pragma once
// Consistent-hash tenant -> shard routing.
//
// The paper's § III-C2 observation — address bits J:N+1 partition VQs over
// multiple VLRDs with zero shared state — is a sharding primitive; this
// router supplies the tenant-side half of it. Each shard owns kVnodes
// points on a 64-bit hash ring; a tenant maps to the owner of the first
// ring point clockwise from its own hash. Growing the mesh from S to S+1
// shards therefore reassigns only the tenants whose arcs the new shard's
// vnodes capture — in expectation 1/(S+1), and the stability test pins
// <= 2/S — instead of rehashing everyone the way `tenant % S` would.
//
// Routing is pure arithmetic (no per-tenant table), so a 1M-tenant
// population costs zero resident state. What is stored is sized by the
// ring, not by the population: the sorted ring, its bucket table (below),
// and the override map written by rebalance(): when one shard runs
// persistently hotter than the mesh average, a bounded set of its tenants
// is pinned to the coldest shard. Overrides are an ordinary std::map keyed
// by tenant id, so iteration — and therefore every simulation that
// consults the router — stays deterministic.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace vl::traffic {

class ShardRouter {
 public:
  static constexpr int kVnodes = 64;  ///< ring points per shard

  explicit ShardRouter(int shards);

  int shards() const { return shards_; }

  /// Owning shard for a tenant id: the override map first, then
  /// owner(hash(tenant)).
  int shard_for(std::uint64_t tenant) const;

  /// Owner of a ring position: the shard of the first ring point strictly
  /// greater than `point`, wrapping past the top to the lowest point.
  /// O(1): the bucket table maps the top bits of `point` to the first ring
  /// index in that bucket, and the scan from there passes well under one
  /// point on average (the table has 8x as many buckets as the ring has
  /// points, rounded up to a power of two: 4096 u32 = 16 KB at S=8).
  int owner(std::uint64_t point) const;

  /// Grow the mesh by one shard (vnodes inserted, overrides kept).
  void add_shard();

  /// Tenants per shard over ids [0, population) — census for tests and for
  /// perfbench's router layer. One shard_for per tenant: a hash, a bucket
  /// load and a short scan.
  std::vector<std::uint64_t> census(std::uint64_t population) const;

  /// Overload-triggered rebalance: when the hottest shard's load exceeds
  /// `ratio` times the mesh mean, pin enough of its tenants (lowest ids
  /// first, at most `max_moves`) onto the coldest shard to shave the
  /// excess. `load` is any per-shard pressure signal — queued backlog,
  /// blocked ticks — with one entry per shard. One walk of the population.
  /// Returns tenants moved.
  std::size_t rebalance(const std::vector<std::uint64_t>& load,
                        std::uint64_t population, double ratio = 1.5,
                        std::size_t max_moves = 4096);

  std::size_t overrides() const { return overrides_.size(); }

  /// splitmix64 finalizer — the ring's (and callers' channel-spreading)
  /// hash. Good avalanche on sequential ids.
  static std::uint64_t hash(std::uint64_t x);

 private:
  void rebuild_ring();

  int shards_;
  /// (ring point, shard id), sorted by point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
  /// bucket_[b] = index of the first ring point whose top bits are >= b
  /// (ring_.size() past the last point). Power-of-two sized.
  std::vector<std::uint32_t> bucket_;
  int bucket_shift_ = 0;  ///< 64 - log2(bucket_.size())
  std::map<std::uint64_t, std::uint32_t> overrides_;
};

}  // namespace vl::traffic
