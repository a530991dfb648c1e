// ISA-contract tests for vl_select / vl_push / vl_fetch (§ III-B).

#include "isa/vl_port.hpp"

#include <gtest/gtest.h>

#include "runtime/machine.hpp"
#include "vlrd/addressing.hpp"

namespace vl::isa {
namespace {

using runtime::Machine;
using sim::Co;
using sim::SimThread;
using sim::spawn;

struct VlPortFixture : ::testing::Test {
  Machine m;
  Addr dev_sqi1 = vlrd::encode({0, 1, 0, 0});
  Addr dev_sqi2 = vlrd::encode({0, 2, 0, 0});
};

TEST_F(VlPortFixture, PushWithoutSelectFails) {
  SimThread t = m.thread_on(0);
  int rc = -1;
  spawn([](Machine& m, SimThread t, Addr dev, int* rc) -> Co<void> {
    *rc = co_await m.vl_port(0).vl_push(t.tid, dev);
  }(m, t, dev_sqi1, &rc));
  m.run();
  EXPECT_EQ(rc, kVlNoSelection);
}

TEST_F(VlPortFixture, FetchWithoutSelectFails) {
  SimThread t = m.thread_on(0);
  int rc = -1;
  spawn([](Machine& m, SimThread t, Addr dev, int* rc) -> Co<void> {
    *rc = co_await m.vl_port(0).vl_fetch(t.tid, dev);
  }(m, t, dev_sqi1, &rc));
  m.run();
  EXPECT_EQ(rc, kVlNoSelection);
}

TEST_F(VlPortFixture, SelectLatchesAndPushConsumes) {
  SimThread t = m.thread_on(0);
  const Addr line = m.alloc(kLineSize);
  int rc1 = -1, rc2 = -1;
  spawn([](Machine& m, SimThread t, Addr line, Addr dev, int* a,
           int* b) -> Co<void> {
    co_await t.store(line, 0x1234, 8);
    co_await m.vl_port(0).vl_select(t.tid, line);
    EXPECT_TRUE(m.vl_port(0).has_selection(t.tid));
    *a = co_await m.vl_port(0).vl_push(t.tid, dev);
    // Selection ends on completion: a second push must fail.
    *b = co_await m.vl_port(0).vl_push(t.tid, dev);
  }(m, t, line, dev_sqi1, &rc1, &rc2));
  m.run();
  EXPECT_EQ(rc1, kVlOk);
  EXPECT_EQ(rc2, kVlNoSelection);
  EXPECT_EQ(m.vlrd().queued_data(1), 1u);
}

TEST_F(VlPortFixture, SuccessfulPushZeroesLineExclusive) {
  SimThread t = m.thread_on(0);
  const Addr line = m.alloc(kLineSize);
  spawn([](Machine& m, SimThread t, Addr line, Addr dev) -> Co<void> {
    co_await t.store(line, 0xffff, 8);
    co_await m.vl_port(0).vl_select(t.tid, line);
    co_await m.vl_port(0).vl_push(t.tid, dev);
  }(m, t, line, dev_sqi1));
  m.run();
  EXPECT_EQ(m.mem().backing().read(line, 8), 0u);
  EXPECT_EQ(m.mem().l1_state(0, line), mem::Mesi::kExclusive);
}

TEST_F(VlPortFixture, EndToEndPushFetchInjects) {
  SimThread prod = m.thread_on(0);
  SimThread cons = m.thread_on(1);
  const Addr pline = m.alloc(kLineSize);
  const Addr cline = m.alloc(kLineSize);

  spawn([](Machine& m, SimThread t, Addr line, Addr dev) -> Co<void> {
    co_await t.store(line, 0xabcdef, 8);
    co_await m.vl_port(0).vl_select(t.tid, line);
    const int rc = co_await m.vl_port(0).vl_push(t.tid, dev);
    EXPECT_EQ(rc, kVlOk);
  }(m, prod, pline, dev_sqi1));

  spawn([](Machine& m, SimThread t, Addr line, Addr dev) -> Co<void> {
    co_await m.vl_port(1).vl_select(t.tid, line);
    const int rc = co_await m.vl_port(1).vl_fetch(t.tid, dev);
    EXPECT_EQ(rc, kVlOk);
  }(m, cons, cline, dev_sqi1));

  m.run();
  EXPECT_EQ(m.mem().backing().read(cline, 8), 0xabcdefu);
  EXPECT_EQ(m.mem().stats().injections, 1u);
}

TEST_F(VlPortFixture, PushNackOnFullBufferReportsBackPressure) {
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 2;
  Machine small(cfg);
  SimThread t = small.thread_on(0);
  const Addr dev = vlrd::encode({0, 1, 0, 0});
  std::vector<int> rcs;
  spawn([](Machine& m, SimThread t, Addr dev, std::vector<int>* rcs) -> Co<void> {
    for (int i = 0; i < 3; ++i) {
      const Addr line = m.alloc(kLineSize);
      co_await t.store(line, i + 1, 8);
      co_await m.vl_port(0).vl_select(t.tid, line);
      rcs->push_back(co_await m.vl_port(0).vl_push(t.tid, dev));
    }
  }(small, t, dev, &rcs));
  small.run();
  ASSERT_EQ(rcs.size(), 3u);
  EXPECT_EQ(rcs[0], kVlOk);
  EXPECT_EQ(rcs[1], kVlOk);
  EXPECT_EQ(rcs[2], kVlNack);  // prodBuf full -> back-pressure to software
}

TEST_F(VlPortFixture, ContextSwitchClearsSelection) {
  // Two threads on one core: t0 selects, t1 runs (forcing a context
  // switch), then t0's push must fail with "no selection". A short
  // scheduling quantum lets the sibling preempt within the test's window.
  sim::SystemConfig cfg;
  cfg.core.sched_quantum = 100;
  Machine mm(cfg);
  SimThread t0 = mm.thread_on(0);
  SimThread t1 = mm.thread_on(0);
  const Addr line = mm.alloc(kLineSize);
  int rc = -1;
  bool t0_selected = false;

  spawn([](Machine& m, SimThread t, Addr line, bool* sel, int* rc) -> Co<void> {
    co_await m.vl_port(0).vl_select(t.tid, line);
    *sel = true;
    co_await t.compute(50);  // yield window for t1
    *rc = co_await m.vl_port(0).vl_push(t.tid, vlrd::encode({0, 1, 0, 0}));
  }(mm, t0, line, &t0_selected, &rc));

  spawn([](SimThread t) -> Co<void> {
    co_await t.compute(10);  // forces residency change on core 0
  }(t1));

  mm.run();
  EXPECT_TRUE(t0_selected);
  EXPECT_EQ(rc, kVlNoSelection);
  EXPECT_GE(mm.core(0).ctx_switches(), 1u);
}

TEST_F(VlPortFixture, ContextSwitchRejectsInjection) {
  // Consumer registers demand, then a sibling thread context-switches the
  // core (clearing pushable); the arriving data must be rejected and
  // retained by the VLRD. A short quantum lets the sibling preempt.
  sim::SystemConfig cfg;
  cfg.core.sched_quantum = 500;
  Machine mm(cfg);
  SimThread cons = mm.thread_on(1);
  SimThread sibling = mm.thread_on(1);
  SimThread prod = mm.thread_on(0);
  const Addr cline = mm.alloc(kLineSize);
  const Addr pline = mm.alloc(kLineSize);

  spawn([](Machine& m, SimThread t, Addr line) -> Co<void> {
    co_await m.vl_port(1).vl_select(t.tid, line);
    co_await m.vl_port(1).vl_fetch(t.tid, vlrd::encode({0, 3, 0, 0}));
  }(mm, cons, cline));

  spawn([](Machine& m, SimThread t) -> Co<void> {
    // Let the consumer finish select+fetch first, then run on its core:
    // the residency change clears the pushable bits.
    co_await sim::Delay(m.eq(), 1500);
    co_await t.compute(5);
  }(mm, sibling));

  spawn([](Machine& m, SimThread t, Addr line) -> Co<void> {
    co_await t.compute(4000);  // arrive well after the context switch
    co_await t.store(line, 0x55, 8);
    co_await m.vl_port(0).vl_select(t.tid, line);
    co_await m.vl_port(0).vl_push(t.tid, vlrd::encode({0, 3, 0, 0}));
  }(mm, prod, pline));

  mm.run();
  EXPECT_EQ(mm.mem().stats().inject_rejects, 1u);
  EXPECT_EQ(mm.vlrd().queued_data(3), 1u);   // data stayed with the VLRD
  EXPECT_EQ(mm.mem().backing().read(cline, 8), 0u);
}

TEST_F(VlPortFixture, SqiRoutingFromDeviceAddress) {
  SimThread t = m.thread_on(0);
  spawn([](Machine& m, SimThread t, Addr d1, Addr d2) -> Co<void> {
    const Addr l1 = m.alloc(kLineSize), l2 = m.alloc(kLineSize);
    co_await t.store(l1, 1, 8);
    co_await m.vl_port(0).vl_select(t.tid, l1);
    co_await m.vl_port(0).vl_push(t.tid, d1);
    co_await t.store(l2, 2, 8);
    co_await m.vl_port(0).vl_select(t.tid, l2);
    co_await m.vl_port(0).vl_push(t.tid, d2);
  }(m, t, dev_sqi1, dev_sqi2));
  m.run();
  EXPECT_EQ(m.vlrd().queued_data(1), 1u);
  EXPECT_EQ(m.vlrd().queued_data(2), 1u);
}

// The pushable tag goes up as vl_fetch issues, before the request crosses
// the bus (§ III-B): a probe stepping through the transit sees every line
// of a fetch run tagged while the device has not yet registered it.
TEST_F(VlPortFixture, FetchTagsLinesBeforeTheRequestReachesTheDevice) {
  SimThread t = m.thread_on(0);
  const Addr lines[2] = {m.alloc(kLineSize), m.alloc(kLineSize)};
  std::size_t registered = 0;
  bool done = false;
  spawn([](Machine& m, SimThread t, const Addr* lines, Addr dev,
           std::size_t* registered, bool* done) -> Co<void> {
    const int rc = co_await m.vl_port(0).vl_select_fetch(
        t.tid, std::span<const Addr>(lines, 2), dev, registered);
    EXPECT_EQ(rc, kVlOk);
    *done = true;
  }(m, t, lines, dev_sqi1, &registered, &done));
  int in_flight = 0;  // probed ticks with tags up and no registration yet
  spawn([](Machine& m, const Addr* lines, const bool* done,
           int* in_flight) -> Co<void> {
    while (!*done) {
      const bool tagged = m.mem().l1_pushable(0, lines[0]) &&
                          m.mem().l1_pushable(0, lines[1]);
      if (tagged && m.vlrd().stats().fetches == 0) ++*in_flight;
      co_await sim::Delay(m.eq(), 1);
    }
  }(m, lines, &done, &in_flight));
  m.run();
  EXPECT_EQ(registered, 2u);
  EXPECT_EQ(m.vlrd().stats().fetches, 2u);
  EXPECT_GT(in_flight, 0);
}

}  // namespace
}  // namespace vl::isa
