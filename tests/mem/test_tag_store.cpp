#include "mem/tag_store.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

// Global operator new replaced for this test binary only: every allocation
// comes back filled with 0xA5, so a read of storage the code under test
// allocated but never wrote sees garbage (a TagEntry that looks valid)
// rather than whatever zeroes the heap held.
namespace {
void* poisoned_new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (!p) throw std::bad_alloc();
  return std::memset(p, 0xA5, n);
}
}  // namespace

void* operator new(std::size_t n) { return poisoned_new(n); }
void* operator new[](std::size_t n) { return poisoned_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vl::mem {
namespace {

TEST(TagStore, GeometryFromSizeAndAssoc) {
  TagStore t(32 * 1024, 2);  // paper L1: 32 KiB, 2-way
  EXPECT_EQ(t.num_sets(), 256u);
  EXPECT_EQ(t.assoc(), 2u);
  TagStore llc(1024 * 1024, 16);  // paper LLC: 1 MiB, 16-way
  EXPECT_EQ(llc.num_sets(), 1024u);
}

TEST(TagStore, InsertAndFind) {
  TagStore t(4096, 2);
  TagEntry* v = t.victim(0x1000);
  v->line = 0x1000;
  v->state = Mesi::kExclusive;
  t.touch(*v);
  TagEntry* f = t.find(0x1000);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->state, Mesi::kExclusive);
}

TEST(TagStore, VictimPrefersInvalidWay) {
  TagStore t(4096, 2);  // 32 sets
  // Fill one way of set for line 0x0.
  TagEntry* a = t.victim(0x0);
  a->line = 0x0;
  a->state = Mesi::kModified;
  t.touch(*a);
  // Same set: line 32 sets * 64 B later.
  const Addr same_set = 32 * 64;
  TagEntry* b = t.victim(same_set);
  EXPECT_FALSE(b->valid());  // picked the empty way, not the valid one
}

TEST(TagStore, VictimEvictsLru) {
  TagStore t(4096, 2);
  const Addr s = 0x0, conflict1 = 32 * 64, conflict2 = 64 * 64;
  auto insert = [&](Addr line) {
    TagEntry* v = t.victim(line);
    v->line = line;
    v->state = Mesi::kShared;
    t.touch(*v);
  };
  insert(s);
  insert(conflict1);
  // Touch s so conflict1 is LRU.
  t.touch(*t.find(s));
  TagEntry* v = t.victim(conflict2);
  EXPECT_EQ(v->line, conflict1);
}

TEST(TagStore, ForEachValidVisitsAll) {
  TagStore t(4096, 2);
  for (Addr a = 0; a < 10 * 64; a += 64) {
    TagEntry* v = t.victim(a);
    v->line = a;
    v->state = Mesi::kShared;
    t.touch(*v);
  }
  int n = 0;
  t.for_each_valid([&](TagEntry&) { ++n; });
  EXPECT_EQ(n, 10);
}

TEST(TagStore, FreshStoreMissesEverywhereAndVisitsNothing) {
  // Three tags per set on the paper's L1 and LLC geometries.
  for (const auto& [size, assoc] : {std::pair{32u * 1024, 2u},
                                    std::pair{1024u * 1024, 16u}}) {
    TagStore t(size, assoc);
    for (Addr set = 0; set < t.num_sets(); ++set)
      for (Addr k = 0; k < 3; ++k)
        EXPECT_EQ(t.find((set + k * t.num_sets()) * kLineSize), nullptr);
    int n = 0;
    t.for_each_valid([&](TagEntry&) { ++n; });
    EXPECT_EQ(n, 0);
  }
}

/// The eager tag store: every frame value-initialised up front, a full
/// frame scan per walk. TagStore must behave exactly like it.
class ReferenceTagStore {
 public:
  ReferenceTagStore(std::uint32_t size_bytes, std::uint32_t assoc)
      : sets_(size_bytes / kLineSize / assoc),
        assoc_(assoc),
        frames_(static_cast<std::size_t>(sets_) * assoc_) {}

  TagEntry* find(Addr line_addr) {
    TagEntry* base = set_base(line_addr);
    for (std::uint32_t w = 0; w < assoc_; ++w)
      if (base[w].valid() && base[w].line == line_addr) return &base[w];
    return nullptr;
  }
  TagEntry* victim(Addr line_addr) {
    TagEntry* base = set_base(line_addr);
    TagEntry* lru = &base[0];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (!base[w].valid()) return &base[w];
      if (base[w].lru < lru->lru) lru = &base[w];
    }
    return lru;
  }
  void touch(TagEntry& e) { e.lru = ++clock_; }
  template <class Fn>
  void for_each_valid(Fn&& fn) {
    for (auto& e : frames_)
      if (e.valid()) fn(e);
  }

 private:
  TagEntry* set_base(Addr line_addr) {
    const auto set = (line_addr >> kLineShift) % sets_;
    return &frames_[set * assoc_];
  }

  std::uint32_t sets_, assoc_;
  std::uint64_t clock_ = 0;
  std::vector<TagEntry> frames_;
};

using Visit = std::tuple<Addr, Mesi, bool, bool, std::uint64_t>;

template <class Store>
std::vector<Visit> visits(Store& s) {
  std::vector<Visit> v;
  s.for_each_valid([&](TagEntry& e) {
    v.emplace_back(e.line, e.state, e.pushable, e.dirty, e.lru);
  });
  return v;
}

TEST(TagStore, MatchesEagerReferenceUnderRandomOps) {
  // A Xoshiro-seeded mix of lookups, fills, touches, invalidations and
  // walks on the paper's L1 and LLC geometries, checked call by call
  // against the eager store. Lines come from a small set of hot sets
  // (so sets fill and evict by LRU) plus a spread of cold ones (so many
  // sets are first used late in the run).
  for (const auto& [size, assoc] : {std::pair{32u * 1024, 2u},
                                    std::pair{1024u * 1024, 16u}}) {
    SCOPED_TRACE(size);
    TagStore lazy(size, assoc);
    ReferenceTagStore ref(size, assoc);
    Xoshiro256 rng(size + assoc);
    const std::uint32_t sets = lazy.num_sets();
    auto pick_line = [&]() -> Addr {
      const Addr set = rng.below(4) != 0 ? rng.below(8) : rng.below(sets);
      const Addr tag = rng.below(2 * assoc + 1);
      return (set + tag * sets) * kLineSize;
    };
    // Frames are one set-major array in both stores, so a frame's offset
    // from the first victim names its set and way.
    TagEntry *l0 = nullptr, *r0 = nullptr;
    std::uint64_t evictions = 0, walks = 0;
    for (int op = 0; op < 60'000; ++op) {
      const Addr line = pick_line();
      TagEntry* l = lazy.find(line);
      TagEntry* r = ref.find(line);
      ASSERT_EQ(l == nullptr, r == nullptr) << "op " << op;
      if (l) {
        ASSERT_EQ(l - l0, r - r0) << "op " << op;  // same frame
      }
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2: {  // fill on miss, touch on hit (Hierarchy::fill_l1)
          if (l) {
            lazy.touch(*l);
            ref.touch(*r);
            break;
          }
          TagEntry* lv = lazy.victim(line);
          TagEntry* rv = ref.victim(line);
          ASSERT_EQ(lv->valid(), rv->valid()) << "op " << op;
          ASSERT_EQ(lv->line, rv->line) << "op " << op;
          ASSERT_EQ(lv->lru, rv->lru) << "op " << op;
          if (!l0) {
            l0 = lv;
            r0 = rv;
          }
          ASSERT_EQ(lv - l0, rv - r0) << "op " << op;  // same set and way
          evictions += lv->valid();
          const auto state = static_cast<Mesi>(1 + rng.below(4));
          const bool pushable = rng.below(2), dirty = rng.below(2);
          for (TagEntry* e : {lv, rv}) {
            *e = TagEntry{};
            e->line = line;
            e->state = state;
            e->pushable = pushable;
            e->dirty = dirty;
          }
          lazy.touch(*lv);
          ref.touch(*rv);
          break;
        }
        case 3:  // snoop invalidation
          if (l) {
            for (TagEntry* e : {l, r}) {
              e->state = Mesi::kInvalid;
              e->pushable = false;
            }
          }
          break;
        case 4:  // pushable clear on a context switch
          if (rng.below(64) == 0) {
            lazy.for_each_valid([](TagEntry& e) { e.pushable = false; });
            ref.for_each_valid([](TagEntry& e) { e.pushable = false; });
          }
          break;
        case 5:
          if (rng.below(256) == 0) {
            ++walks;
            ASSERT_EQ(visits(lazy), visits(ref)) << "op " << op;
          }
          break;
        default:  // lookup only
          break;
      }
    }
    EXPECT_EQ(visits(lazy), visits(ref));
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(walks, 10u);
  }
}

TEST(TagStore, MesiToString) {
  EXPECT_STREQ(to_string(Mesi::kInvalid), "I");
  EXPECT_STREQ(to_string(Mesi::kShared), "S");
  EXPECT_STREQ(to_string(Mesi::kExclusive), "E");
  EXPECT_STREQ(to_string(Mesi::kModified), "M");
}

}  // namespace
}  // namespace vl::mem
