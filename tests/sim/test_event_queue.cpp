#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <utility>
#include <vector>

// Global operator new replaced for this test binary only: every allocation
// comes back filled with 0xA5, so a read of storage the code under test
// allocated but never wrote sees garbage (an out-of-range bucket link)
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

namespace vl::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(30, [&] { order.push_back(3); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) eq.schedule_at(5, [&, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue eq;
  Tick seen = 0;
  eq.schedule_at(100, [&] {
    eq.schedule_in(5, [&] { seen = eq.now(); });
  });
  eq.run();
  EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanCascade) {
  EventQueue eq;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 100) eq.schedule_in(1, recur);
  };
  eq.schedule_in(1, recur);
  eq.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(10, [&] { ++fired; });
  eq.schedule_at(20, [&] { ++fired; });
  eq.schedule_at(30, [&] { ++fired; });
  eq.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), 20u);
  eq.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunWithLimit) {
  EventQueue eq;
  int fired = 0;
  for (int i = 0; i < 5; ++i) eq.schedule_at(i + 1, [&] { ++fired; });
  EXPECT_EQ(eq.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eq.pending(), 2u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenEmpty) {
  EventQueue eq;
  eq.run_until(500);
  EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, ExecutedCounts) {
  EventQueue eq;
  for (int i = 0; i < 7; ++i) eq.schedule_at(i + 1, [] {});
  EXPECT_EQ(eq.executed(), 0u);
  eq.run();
  EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, FarFutureEventsInterleaveWithNearOnes) {
  // Events far beyond the calendar-ring horizon (8192 ticks) take the
  // far-heap path; ordering across both paths must stay by (tick, seq).
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(100'000, [&] { order.push_back(3); });  // far
  eq.schedule_at(10, [&] { order.push_back(1); });       // near
  eq.schedule_at(50'000, [&] { order.push_back(2); });   // far
  eq.schedule_at(100'001, [&] { order.push_back(4); });  // far
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(eq.now(), 100'001u);
}

TEST(EventQueue, FarAndNearEventsOnTheSameTickMergeBySeq) {
  // Schedule A for tick 10000 while it is far (beyond the horizon), then
  // advance so 10000 is near and schedule B for the same tick. A was
  // scheduled first, so it must fire first.
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(10'000, [&] { order.push_back(1) ; });  // far at now=0
  eq.schedule_at(5'000, [&] {
    eq.schedule_at(10'000, [&] { order.push_back(2); });  // near at now=5000
  });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, MatchesReferenceModelUnderRandomLoad) {
  // A deterministic pseudo-random population of self-rescheduling events
  // (offsets of 0, short, just either side of the 8192-tick ring horizon,
  // and far beyond it), checked event by event against a naive
  // (tick, seq)-ordered set. The main loop interleaves step(), run_until()
  // and peek_next_tick() the way the sharded stepper probes its shards.
  EventQueue eq;
  std::set<std::pair<Tick, std::uint64_t>> ref;  // pending (when, id)
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // Per-tick coverage: which kinds of event fired at a tick.
  enum Kind : unsigned { kNear = 1, kFar = 2, kSameTick = 4 };
  std::map<Tick, unsigned> kinds;
  constexpr std::uint64_t kBudget = 24'000;
  std::uint64_t id = 0, fired = 0;
  std::size_t peak = 0;
  std::function<void()> add = [&] {
    const std::uint64_t r = next() % 16;
    const Tick off = r < 2    ? 0
                     : r < 4  ? 8190 + next() % 5
                     : r < 6  ? 8192 + next() % 30'000
                              : 1 + next() % 1024;
    const Tick when = eq.now() + off;
    const unsigned kind = off == 0 ? kSameTick : off >= 8192 ? kFar : kNear;
    const std::uint64_t my_id = id++;
    ref.emplace(when, my_id);
    peak = std::max(peak, ref.size());
    eq.schedule_at(when, [&, when, kind, my_id] {
      ASSERT_FALSE(ref.empty());
      ASSERT_EQ(*ref.begin(), std::make_pair(when, my_id)) << "event " << fired;
      ASSERT_EQ(eq.now(), when);
      ref.erase(ref.begin());
      kinds[when] |= kind;
      ++fired;
      if (id < kBudget) add();
      if (id < kBudget && next() % 4 == 0) add();  // fan out
    });
  };
  for (int i = 0; i < 64; ++i) add();

  while (!eq.empty()) {
    const auto probe = eq.peek_next_tick();
    ASSERT_TRUE(probe.has_value());
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(*probe, ref.begin()->first);
    ASSERT_EQ(eq.pending(), ref.size());
    switch (next() % 3) {
      case 0:
        eq.step();
        break;
      case 1: {  // may cross empty time
        const Tick t = eq.now() + next() % 2048;
        eq.run_until(t);
        ASSERT_GE(eq.now(), t);
        ASSERT_TRUE(ref.empty() || ref.begin()->first > t);
        break;
      }
      default:  // run exactly to the probed horizon
        eq.run_until(*probe);
        ASSERT_TRUE(ref.empty() || ref.begin()->first > *probe);
        break;
    }
  }

  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(fired, id);
  EXPECT_GE(fired, 20'000u);
  EXPECT_EQ(eq.executed(), fired);
  EXPECT_GE(eq.now(), 5 * Tick{8192}) << "the load must lap the ring";
  EXPECT_EQ(eq.slots(), peak);
  // Far events relinked into a bucket that already held near events, with
  // a same-tick cascade appended behind them.
  std::size_t merged_cascades = 0;
  for (const auto& [tick, k] : kinds)
    merged_cascades += k == (kNear | kFar | kSameTick);
  EXPECT_GE(merged_cascades, 20u);

  // Fresh queue: its ring is allocated uninitialised (0xA5 garbage under
  // this binary's operator new), so every bucket must be read only under
  // its occupancy bit. Its first events land in never-used buckets; then
  // a run_until jump of more than two ring laps, a far run relinked into a
  // bucket that never held a near event, and far + near + same-tick
  // cascade on one tick.
  EventQueue fresh;
  ref.clear();
  id = fired = 0;
  std::function<void(Tick, std::function<void()>)> at =
      [&](Tick when, std::function<void()> then) {
        const std::uint64_t my_id = id++;
        ref.emplace(when, my_id);
        fresh.schedule_at(when, [&, when, my_id, then = std::move(then)] {
          ASSERT_FALSE(ref.empty());
          ASSERT_EQ(*ref.begin(), std::make_pair(when, my_id)) << my_id;
          ASSERT_EQ(fresh.now(), when);
          ref.erase(ref.begin());
          ++fired;
          if (then) then();
        });
      };
  EXPECT_FALSE(fresh.peek_next_tick().has_value());
  for (const Tick t : {Tick{3}, Tick{3}, Tick{700}, Tick{8191}}) at(t, {});
  EXPECT_EQ(fresh.peek_next_tick(), Tick{3});
  fresh.run_until(8191);
  EXPECT_EQ(fired, 4u);
  const Tick jump = 8191 + 2 * Tick{8192} + 777;  // > two ring laps
  const Tick t1 = jump + 50;          // far now, near after the jump
  const Tick t2 = jump + 8192 + 900;  // far even after the jump
  at(t1, {});
  at(t1 + 1, {});  // far run alone in its bucket
  fresh.run_until(jump);
  EXPECT_EQ(fresh.now(), jump);
  EXPECT_EQ(fresh.peek_next_tick(), t1);
  at(t1, [&] { at(t1, {}); });  // near behind the far run, then a cascade
  at(t2 - 100, [&] {
    at(t2, [&] { at(t2, {}); });  // near + same-tick cascade behind far
    at(t2 + 5, {});
  });
  at(t2, {});  // still far from here
  fresh.run();
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(fired, id);
  EXPECT_EQ(fired, 13u);
  EXPECT_EQ(fresh.now(), t2 + 5);
}

TEST(EventQueue, SlabIsBoundedByPeakPendingNotByTicksVisited) {
  // 64 self-rescheduling events cross the ring at least ten times, some
  // through the far heap; a node is reused as soon as its event fires, so
  // the slab never outgrows the 64 events ever pending at once.
  EventQueue eq;
  constexpr std::size_t kLive = 64;
  constexpr Tick kEnd = 10 * Tick{8192} + 1;
  std::uint64_t rng = 0x2545f4914f6cdd1dull;
  std::size_t max_slots = 0;
  std::function<void()> tick = [&] {
    max_slots = std::max(max_slots, eq.slots());
    if (eq.now() >= kEnd) return;
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    eq.schedule_in(rng % 8 == 0 ? 8192 + rng % 4096 : 1 + rng % 512, tick);
  };
  for (std::size_t i = 0; i < kLive; ++i) eq.schedule_in(i, tick);
  eq.run();
  EXPECT_GE(eq.now(), kEnd);
  EXPECT_LE(max_slots, kLive);
  EXPECT_EQ(eq.slots(), kLive);
}

}  // namespace
}  // namespace vl::sim
