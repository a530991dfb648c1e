#pragma once
// In-order timing core model.
//
// Each Core owns one issue port; software threads bound to the core
// serialize through it (the paper's FIR benchmark runs two threads per core
// and the resulting context switches are what defeat VL cache injection
// there, so thread residency is modelled explicitly). Switching the resident
// thread costs CoreConfig::ctx_switch_cost cycles and fires registered
// hooks — the VL port uses those to drop its latched selection and clear
// "pushable" tag bits, exactly as § III-B requires.
//
// Scheduling is an explicit per-core run-queue with yield-on-block
// semantics: the resident thread keeps the port between its own ops inside
// its timeslice; contenders queue FIFO and are granted either when the
// resident's quantum expires (a preemption timer, the backstop) or
// immediately when the resident blocks — a parked thread donates the rest
// of its slice via yield() instead of spinning it out.

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/mem_port.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vl::sim {

class Core;

/// A software thread bound to a core. Thin value type passed to every op.
struct SimThread {
  Core* core = nullptr;
  int tid = -1;

  // Convenience forwarding (definitions after Core).
  Co<void> compute(std::uint64_t cycles) const;
  Co<std::uint64_t> load(Addr a, unsigned size = 8) const;
  Co<void> store(Addr a, std::uint64_t v, unsigned size = 8) const;
  Co<bool> cas64(Addr a, std::uint64_t expected, std::uint64_t desired) const;
  Co<std::uint64_t> fetch_add64(Addr a, std::uint64_t delta) const;
  Co<std::uint64_t> swap64(Addr a, std::uint64_t v) const;
  Co<void> load_line(Addr a, void* out) const;
  Co<void> store_line(Addr a, const void* in) const;

  /// Futex-style blocking: donate this thread's core residency (yield) and
  /// park on `wq` unless its epoch already moved past `expected`. Costs no
  /// simulated time and generates no events while parked.
  Co<void> park(WaitQueue& wq, std::uint64_t expected) const;

  /// Multi-futex blocking (select/wait-any): donate residency and park on
  /// every queue in `wqs` at once; resumes on the first wake from any of
  /// them and returns that queue's index. Falls through immediately when
  /// any epoch already moved past its sampled gate.
  Co<std::size_t> park_any(std::span<WaitQueue* const> wqs,
                           std::span<const std::uint64_t> gates) const;

  /// Credit-gate blocking: donate residency and wait FIFO for `want`
  /// credits (no yield when they are immediately available).
  Co<void> acquire_credits(CreditGate& g, std::uint64_t want) const;
};

class Core {
 public:
  using CtxSwitchHook = std::function<void(int old_tid, int new_tid)>;

  Core(EventQueue& eq, CoreId id, MemoryPort& mem, const CoreConfig& cfg)
      : eq_(eq), id_(id), mem_(mem), cfg_(cfg) {}

  EventQueue& eq() { return eq_; }
  CoreId id() const { return id_; }
  const CoreConfig& cfg() const { return cfg_; }

  /// Register a software thread on this core; returns its tid.
  SimThread make_thread() { return SimThread{this, next_tid_++}; }
  int thread_count() const { return next_tid_; }
  int resident_tid() const { return resident_; }

  void add_ctx_switch_hook(CtxSwitchHook h) {
    hooks_.push_back(std::move(h));
  }

  /// Number of context switches taken on this core.
  std::uint64_t ctx_switches() const { return ctx_switches_; }
  /// Times a blocking thread donated its residency via yield().
  std::uint64_t yields() const { return yields_; }
  /// Threads currently queued for the issue port.
  std::size_t run_queue_depth() const { return run_queue_.size() - rq_head_; }

  // --- awaitable operations ------------------------------------------------
  Co<void> compute(int tid, std::uint64_t cycles);
  Co<std::uint64_t> load(int tid, Addr a, unsigned size);
  Co<void> store(int tid, Addr a, std::uint64_t v, unsigned size);
  Co<bool> cas64(int tid, Addr a, std::uint64_t expected, std::uint64_t desired);
  Co<std::uint64_t> fetch_add64(int tid, Addr a, std::uint64_t delta);
  Co<std::uint64_t> swap64(int tid, Addr a, std::uint64_t v);
  Co<void> load_line(int tid, Addr a, void* out);
  Co<void> store_line(int tid, Addr a, const void* in);

  /// Awaitable: acquire the issue port as `tid`, paying a context switch if
  /// the resident thread changes. Used directly by the VL ISA port as well.
  struct PortAwaiter {
    Core& core;
    int tid;
    bool await_ready() { return core.try_acquire_now(tid); }
    void await_suspend(std::coroutine_handle<> h) {
      core.enqueue_waiter(tid, h);
    }
    void await_resume() const noexcept {}
  };
  PortAwaiter acquire_port(int tid) { return PortAwaiter{*this, tid}; }
  void release_port() {
    assert(port_busy_);
    port_busy_ = false;
    maybe_grant();
  }

  /// Yield-on-block: a thread about to park calls this (via SimThread::park)
  /// so the next queued thread is granted the core immediately instead of
  /// waiting out the blocked thread's quantum. No-op if `tid` is not
  /// resident. Must not be called while an op holds the issue port.
  void yield(int tid);

 private:
  friend struct PortAwaiter;

  Co<MemResult> issue(int tid, MemRequest req);

  bool try_acquire_now(int tid);
  void enqueue_waiter(int tid, std::coroutine_handle<> h);
  void maybe_grant();
  void grant_front();
  void arm_preempt_timer(Tick when);
  bool run_queue_empty() const { return rq_head_ == run_queue_.size(); }
  bool within_slice() const {
    return eq_.now() < resident_since_ + cfg_.sched_quantum;
  }

  struct PortWaiter {
    int tid;
    std::coroutine_handle<> h;
  };

  EventQueue& eq_;
  CoreId id_;
  MemoryPort& mem_;
  CoreConfig cfg_;
  int next_tid_ = 0;
  int resident_ = -1;
  Tick resident_since_ = 0;
  bool port_busy_ = false;        ///< an op currently owns the issue port
  bool resident_blocked_ = false; ///< resident yielded (parked) the core
  bool preempt_armed_ = false;
  // FIFO run_queue_[rq_head_, end). A vector, unlike a deque, allocates
  // nothing until the core is first contended.
  std::vector<PortWaiter> run_queue_;
  std::size_t rq_head_ = 0;
  std::uint64_t ctx_switches_ = 0;
  std::uint64_t yields_ = 0;
  std::vector<CtxSwitchHook> hooks_;
};

// --- SimThread forwarding ----------------------------------------------------
inline Co<void> SimThread::compute(std::uint64_t cycles) const {
  return core->compute(tid, cycles);
}
inline Co<std::uint64_t> SimThread::load(Addr a, unsigned size) const {
  return core->load(tid, a, size);
}
inline Co<void> SimThread::store(Addr a, std::uint64_t v, unsigned size) const {
  return core->store(tid, a, v, size);
}
inline Co<bool> SimThread::cas64(Addr a, std::uint64_t expected,
                                 std::uint64_t desired) const {
  return core->cas64(tid, a, expected, desired);
}
inline Co<std::uint64_t> SimThread::fetch_add64(Addr a,
                                                std::uint64_t delta) const {
  return core->fetch_add64(tid, a, delta);
}
inline Co<std::uint64_t> SimThread::swap64(Addr a, std::uint64_t v) const {
  return core->swap64(tid, a, v);
}
inline Co<void> SimThread::load_line(Addr a, void* out) const {
  return core->load_line(tid, a, out);
}
inline Co<void> SimThread::store_line(Addr a, const void* in) const {
  return core->store_line(tid, a, in);
}

}  // namespace vl::sim
