#pragma once
// Set-associative tag store with LRU replacement, shared by the private L1
// model and the LLC model. Holds MESI state plus the single "pushable" tag
// bit that VL's ISA extension adds to private caches (§ III-B).

#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace vl::mem {

/// Coherence states. kOwned exists only under the MOESI protocol variant
/// (CacheConfig::protocol): a dirty line that is being shared, with this
/// cache responsible for sourcing it — read-snoops of Modified lines then
/// skip the LLC writeback MESI pays.
enum class Mesi : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,
  kModified,
  kOwned,
};

inline const char* to_string(Mesi s) {
  switch (s) {
    case Mesi::kInvalid: return "I";
    case Mesi::kShared: return "S";
    case Mesi::kExclusive: return "E";
    case Mesi::kModified: return "M";
    case Mesi::kOwned: return "O";
  }
  return "?";
}

/// States whose data must be written back when the line leaves the cache.
inline bool holds_dirty(Mesi s) {
  return s == Mesi::kModified || s == Mesi::kOwned;
}

/// One tag frame. No default member initialisers, so a TagStore can
/// allocate its frames without writing them; the empty (invalid, clean,
/// never-used) frame is the value-initialised TagEntry{}.
struct TagEntry {
  Addr line;
  Mesi state;    ///< kInvalid (0) in TagEntry{}.
  bool pushable; ///< VL injection permission bit (L1 only).
  bool dirty;    ///< LLC only: needs DRAM writeback on eviction.
  std::uint64_t lru;

  bool valid() const { return state != Mesi::kInvalid; }
};
static_assert(std::is_trivially_default_constructible_v<TagEntry>,
              "TagStore allocates frames uninitialised; TagEntry{} is empty");

/// Frames are allocated uninitialised and a set is initialised on first
/// use: one `live_` bit per set records whether its ways have been written.
/// A set that is not live holds no lines, so find() misses there without
/// reading its frames, and victim() zeroes it and hands out way 0 — the
/// first invalid way of an empty set. Building a store costs its
/// allocation and the bitmap, not a write of every frame.
class TagStore {
 public:
  /// size/assoc in bytes/ways; line size fixed at kLineSize.
  TagStore(std::uint32_t size_bytes, std::uint32_t assoc);

  /// Find the entry holding `line_addr`, or nullptr.
  TagEntry* find(Addr line_addr);
  const TagEntry* find(Addr line_addr) const;

  /// Pick the victim frame in line_addr's set (an invalid way if available,
  /// else LRU). Never null. Does not modify a live set; a set used for
  /// the first time is initialised to TagEntry{} and way 0 returned.
  TagEntry* victim(Addr line_addr);

  /// Mark recently used.
  void touch(TagEntry& e) { e.lru = ++clock_; }

  std::uint32_t num_sets() const { return sets_; }
  std::uint32_t assoc() const { return assoc_; }

  /// Iterate over all valid entries (used for flush/invalidate-all).
  /// Visits live sets only, in set order.
  template <class Fn>
  void for_each_valid(Fn&& fn) {
    for (std::size_t w = 0; w < live_.size(); ++w)
      for (std::uint64_t bits = live_[w]; bits; bits &= bits - 1) {
        const std::size_t set = (w << 6) + std::countr_zero(bits);
        TagEntry* base = &frames_[set * assoc_];
        for (std::uint32_t i = 0; i < assoc_; ++i)
          if (base[i].valid()) fn(base[i]);
      }
  }

 private:
  std::uint32_t set_of(Addr line_addr) const {
    return static_cast<std::uint32_t>((line_addr >> kLineShift) % sets_);
  }
  bool live(std::uint32_t set) const {
    return (live_[set >> 6] >> (set & 63)) & 1;
  }

  std::uint32_t sets_;
  std::uint32_t assoc_;
  std::uint64_t clock_ = 0;
  std::unique_ptr<TagEntry[]> frames_;  // sets_ * assoc_, set-major
  std::vector<std::uint64_t> live_;     // one bit per set: ways written
};

}  // namespace vl::mem
