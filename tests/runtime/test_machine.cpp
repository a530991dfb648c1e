#include "runtime/machine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "squeue/factory.hpp"

// Global operator new/delete replaced for this test binary only, counting
// calls, so construction cost can be pinned as an allocation count.
namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vl::runtime {
namespace {

TEST(Machine, Table3ConfigBuilds16Cores) {
  Machine m;
  EXPECT_EQ(m.num_cores(), 16u);
}

TEST(Machine, AllocAlignsAndAdvances) {
  Machine m;
  const Addr a = m.alloc(10);
  const Addr b = m.alloc(10);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  const Addr c = m.alloc(100, 4096);
  EXPECT_EQ(c % 4096, 0u);
}

TEST(Machine, AllocationsNeverReachDeviceWindow) {
  Machine m;
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(vlrd::is_device_addr(m.alloc(4096)));
}

TEST(Machine, NsConversionUses2GHz) {
  Machine m;
  EXPECT_DOUBLE_EQ(m.ns(2), 1.0);  // 2 ticks @ 0.5 ns
}

TEST(Machine, ThreadsOnDistinctCoresAreIndependent) {
  Machine m;
  auto t0 = m.thread_on(0);
  auto t5 = m.thread_on(5);
  EXPECT_EQ(t0.core->id(), 0u);
  EXPECT_EQ(t5.core->id(), 5u);
  EXPECT_EQ(t0.tid, 0);
  EXPECT_EQ(t5.tid, 0);  // tids are per-core
}

TEST(Machine, IdealConfigPropagatesToVlrd) {
  Machine m(sim::SystemConfig::table3_ideal());
  // Ideal device never reports full buffers.
  EXPECT_EQ(m.vlrd().prod_free_slots(), UINT32_MAX);
}

/// Heap allocations made by building a Machine and its ChannelFactory.
std::uint64_t build_allocs(squeue::Backend b) {
  const sim::SystemConfig cfg = squeue::config_for(b);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  Machine m(cfg);
  squeue::ChannelFactory f(m, b);
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(Machine, ConstructionAllocationsArePinned) {
  using squeue::Backend;
  // Ceilings: each backend's count when this test was written (GCC 12,
  // libstdc++), down from 146 (401 for VL(ideal)) when every core's run
  // queue was a std::deque and VL(ideal) built 128 per-SQI deques up
  // front. Tag stores, the event ring and the core run queues allocate
  // nothing per set, bucket or core; VL(ideal) FIFOs wait for their SQI.
  const std::pair<Backend, std::uint64_t> ceilings[] = {
      {Backend::kBlfq, 131},    {Backend::kZmq, 131}, {Backend::kVl, 131},
      {Backend::kVlIdeal, 129}, {Backend::kCaf, 131},
  };
  for (const auto& [b, ceiling] : ceilings) {
    SCOPED_TRACE(squeue::to_string(b));
    EXPECT_LE(build_allocs(b), ceiling);
  }
  // No per-SQI storage before first use: VL(ideal) builds no more than
  // VL64, whose device holds its three hardware tables.
  EXPECT_LE(build_allocs(Backend::kVlIdeal), build_allocs(Backend::kVl));
}

}  // namespace
}  // namespace vl::runtime
