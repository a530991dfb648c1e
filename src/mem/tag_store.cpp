#include "mem/tag_store.hpp"

#include <algorithm>
#include <cassert>

namespace vl::mem {

namespace {
std::uint32_t pow2_sets(std::uint32_t size_bytes, std::uint32_t assoc) {
  const std::uint32_t lines = size_bytes / kLineSize;
  assert(lines >= assoc && lines % assoc == 0);
  return lines / assoc;
}
}  // namespace

TagStore::TagStore(std::uint32_t size_bytes, std::uint32_t assoc)
    : sets_(pow2_sets(size_bytes, assoc)),
      assoc_(assoc),
      frames_(std::make_unique_for_overwrite<TagEntry[]>(
          static_cast<std::size_t>(sets_) * assoc_)),
      live_((sets_ + 63) / 64) {}

TagEntry* TagStore::find(Addr line_addr) {
  const std::uint32_t set = set_of(line_addr);
  if (!live(set)) return nullptr;
  TagEntry* base = &frames_[static_cast<std::size_t>(set) * assoc_];
  for (std::uint32_t w = 0; w < assoc_; ++w)
    if (base[w].valid() && base[w].line == line_addr) return &base[w];
  return nullptr;
}

const TagEntry* TagStore::find(Addr line_addr) const {
  return const_cast<TagStore*>(this)->find(line_addr);
}

TagEntry* TagStore::victim(Addr line_addr) {
  const std::uint32_t set = set_of(line_addr);
  TagEntry* base = &frames_[static_cast<std::size_t>(set) * assoc_];
  if (!live(set)) {
    std::fill_n(base, assoc_, TagEntry{});
    live_[set >> 6] |= std::uint64_t{1} << (set & 63);
    return base;
  }
  TagEntry* lru = &base[0];
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (!base[w].valid()) return &base[w];
    if (base[w].lru < lru->lru) lru = &base[w];
  }
  return lru;
}

}  // namespace vl::mem
