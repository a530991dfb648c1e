// Satellite: the PR 6 landed-frame sweep under churn. A consumer leaving
// (releasing its demand lease) and rejoining mid-traffic must not strand
// frames that already landed past its poll cursor — sweep_landed() must
// recover every landed line, and messages in flight at the leave instant
// must reject back to the device and redeliver after the rejoin.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/vl_queue.hpp"
#include "traffic/cell.hpp"
#include "traffic/engine.hpp"

namespace vl::runtime {
namespace {

using sim::Co;
using sim::spawn;

TEST(ChurnSweep, LeaveRecoversLandedFramesPastTheCursor) {
  // Arm 8 lines ahead, land 6 frames, consume only 2: lines 2..5 hold
  // landed frames past the cursor. On leave, the sweep must surface all
  // four — an in-order-only poll would strand them forever (no later
  // message refills the skipped lines at a traffic tail).
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(5));
  std::vector<std::uint64_t> dequeued, swept;
  spawn([](Consumer& c, Producer& p, Machine& m,
           std::vector<std::uint64_t>* deq,
           std::vector<std::uint64_t>* swp) -> Co<void> {
    co_await c.arm_ahead(8);
    for (std::uint64_t i = 0; i < 6; ++i) co_await p.enqueue1(i);
    deq->push_back(co_await c.dequeue1());
    deq->push_back(co_await c.dequeue1());
    // Let every accepted line finish its device->endpoint injection, so
    // nothing is in flight when the lease drops.
    co_await sim::Delay(m.eq(), 5000);
    c.release_ahead();  // leave: drop the demand lease
    while (true) {
      auto f = co_await c.sweep_landed();
      if (!f) break;
      for (std::uint64_t v : f->elems) swp->push_back(v);
    }
  }(cons, prod, m, &dequeued, &swept));
  m.run();
  ASSERT_EQ(dequeued.size(), 2u);
  ASSERT_EQ(swept.size(), 4u) << "landed frames past the cursor stranded";
  std::vector<std::uint64_t> all = dequeued;
  all.insert(all.end(), swept.begin(), swept.end());
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(all[i], i);
  EXPECT_EQ(m.vlrd().queued_data(q.sqi), 0u);
}

TEST(ChurnSweep, LeaveRejoinMidTrafficLosesNothing) {
  // A producer streams 32 messages while the consumer leaves mid-drain
  // (lease released, thread migrated) and rejoins on another core.
  // In-flight injections at the leave instant reject back to the device;
  // landed frames are swept; the rejoined consumer drains the rest —
  // exactly-once delivery of the full multiset.
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(4));
  constexpr std::uint64_t kMsgs = 32;
  std::vector<std::uint64_t> got;
  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 0; i < kMsgs; ++i) co_await p.enqueue1(i);
  }(prod));
  spawn([](Consumer& c, Machine& m, std::vector<std::uint64_t>* out)
            -> Co<void> {
    for (int i = 0; i < 8; ++i) out->push_back(co_await c.dequeue1());
    // Leave: drop the lease with traffic still in flight, move cores.
    c.release_ahead();
    c.migrate(m.thread_on(6));
    // Rejoin: first recover whatever already landed in our ring…
    while (true) {
      auto f = co_await c.sweep_landed();
      if (!f) break;
      for (std::uint64_t v : f->elems) out->push_back(v);
    }
    // …then drain the rest through fresh registrations.
    while (out->size() < kMsgs) out->push_back(co_await c.dequeue1());
  }(cons, m, &got));
  m.run();
  ASSERT_EQ(got.size(), kMsgs);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
      << "duplicate delivery";
  for (std::uint64_t i = 0; i < kMsgs; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(m.vlrd().queued_data(q.sqi), 0u) << "messages stranded on device";
}

TEST(ChurnSweep, EngineReconfigUnderLoadConservesOnVlBackends) {
  // The engine-level form: a wildcard SQI re-registration fires on every
  // channel mid-traffic (Channel::reconfigure -> Consumer::migrate, the
  // § III-B path) and must not lose or duplicate a single message.
  using squeue::Backend;
  for (Backend b : {Backend::kVl, Backend::kVlIdeal}) {
    traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
    spec.supervisor = false;
    spec.lifecycle = replay::LifecycleSpec::parse(
        "reconfig@20000;leave@30000:tenant=bulk;join@45000:tenant=bulk");
    const traffic::EngineResult r = traffic::run({spec, b, 42}).engine;
    for (const traffic::TenantMetrics& t : r.metrics.tenants) {
      EXPECT_EQ(t.generated, t.delivered + t.dropped)
          << squeue::to_string(b) << "/" << t.tenant;
      EXPECT_EQ(t.sent, t.delivered) << squeue::to_string(b) << "/" << t.tenant;
    }
  }
}

}  // namespace
}  // namespace vl::runtime
