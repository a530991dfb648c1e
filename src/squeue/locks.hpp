#pragma once
// Simulated lock primitives for the lockhammer reproduction (paper Fig. 2):
// a CAS-based lock, a ticket lock, and a test-and-test-and-set spin lock,
// all operating on shared coherent memory so the contention cost emerges
// from the cache model (line bouncing, invalidations) rather than from a
// hand-tuned constant.
//
// Waiting is adaptive, like a glibc futex mutex: a contender spins a
// bounded number of rounds (generating exactly the coherence traffic the
// Fig. 2 sweep measures), then parks on the lock's WaitQueue and donates
// its core residency; release wakes the parked waiter. Long waits thus
// cost O(1) events instead of O(wait/Pause) polls, while short-hold
// contention behaves as before.
//
// Note: SimCaf multi-word messages and these locks are exercised by the
// lockhammer and pipeline benchmarks; see `bench_paper --figure fig02`.

#include <map>
#include <memory>
#include <utility>

#include "runtime/machine.hpp"
#include "sim/core.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vl::squeue {

/// Abstract lock so the lockhammer harness can sweep implementations.
class SimLock {
 public:
  virtual ~SimLock() = default;
  virtual sim::Co<void> acquire(sim::SimThread t) = 0;
  virtual sim::Co<void> release(sim::SimThread t) = 0;
  virtual const char* name() const = 0;
};

/// Plain CAS lock: bounded CAS(0 -> 1) retry, then park.
class SimCasLock : public SimLock {
 public:
  explicit SimCasLock(runtime::Machine& m)
      : a_(m.alloc(kLineSize)), wq_(m.eq()) {}
  sim::Co<void> acquire(sim::SimThread t) override;
  sim::Co<void> release(sim::SimThread t) override;
  const char* name() const override { return "cas_lock"; }

 private:
  Addr a_;
  sim::WaitQueue wq_;
};

/// Test-and-test-and-set spin lock: spin on a Shared copy, then park.
class SimSpinLock : public SimLock {
 public:
  explicit SimSpinLock(runtime::Machine& m)
      : a_(m.alloc(kLineSize)), wq_(m.eq()) {}
  sim::Co<void> acquire(sim::SimThread t) override;
  sim::Co<void> release(sim::SimThread t) override;
  const char* name() const override { return "spin_lock"; }

 private:
  Addr a_;
  sim::WaitQueue wq_;
};

/// Ticket lock: FIFO-fair; next-ticket and now-serving words share a line
/// (the classic layout — and the classic bounce). The holder of the next
/// ticket spins; everyone further back parks and is woken (broadcast) on
/// each release to re-check now-serving.
class SimTicketLock : public SimLock {
 public:
  explicit SimTicketLock(runtime::Machine& m)
      : a_(m.alloc(kLineSize)), wq_(m.eq()) {}
  sim::Co<void> acquire(sim::SimThread t) override;
  sim::Co<void> release(sim::SimThread t) override;
  const char* name() const override { return "ticket_lock"; }

 private:
  Addr a_;  // +0: next ticket, +8: now serving
  sim::WaitQueue wq_;
};

/// MCS queue lock (extension): contenders enqueue a per-thread node with a
/// swap on the tail pointer and then spin on *their own* node's flag, so
/// waiting generates no shared-line bouncing — the scalable contrast to
/// the three locks above in the Fig. 2 sweep. Each node occupies its own
/// cache line (+0 locked flag, +8 next pointer); each node also carries a
/// private WaitQueue so the releaser wakes exactly its successor.
class SimMcsLock : public SimLock {
 public:
  explicit SimMcsLock(runtime::Machine& m) : m_(m), tail_(m.alloc(kLineSize)) {}
  sim::Co<void> acquire(sim::SimThread t) override;
  sim::Co<void> release(sim::SimThread t) override;
  const char* name() const override { return "mcs_lock"; }

 private:
  struct Node {
    Addr addr = 0;
    std::unique_ptr<sim::WaitQueue> wq;
  };
  Node& node_for(sim::SimThread t);

  runtime::Machine& m_;
  Addr tail_;
  std::map<std::pair<CoreId, int>, Node> nodes_;  // (core, tid) -> node
  std::map<Addr, sim::WaitQueue*> wq_by_node_;    // successor lookup
};

}  // namespace vl::squeue
