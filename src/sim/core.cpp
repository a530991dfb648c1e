#include "sim/core.hpp"

#include "obs/tracer.hpp"

namespace vl::sim {

// --- run-queue scheduling ----------------------------------------------------
//
// Invariants:
//   * port_busy_ is true exactly while one op holds the issue port.
//   * resident_ names the thread whose architectural state is on the core
//     (hooks/ctx cost fire only when it changes); resident_blocked_ marks a
//     resident that parked and donated its slice.
//   * run_queue_[rq_head_, end) holds suspended acquire_port() callers,
//     FIFO; grant_front() drops the consumed prefix once it is at least
//     half the vector, so each pop is amortised O(1).
//   * Grants always resume through the EventQueue (never inline), so
//     scheduling order is deterministic and re-entrancy free.

bool Core::try_acquire_now(int tid) {
  if (port_busy_) return false;
  if (resident_ == tid) {
    // The resident keeps the core between its own ops inside its slice.
    // Once the slice expired and someone is queued, it must requeue.
    if (!run_queue_empty() && (!within_slice() || resident_blocked_))
      return false;
    resident_blocked_ = false;
    port_busy_ = true;
    return true;
  }
  if (resident_ == -1 && run_queue_empty()) {
    resident_ = tid;  // first occupant: free, like the original model
    resident_since_ = eq_.now();
    port_busy_ = true;
    return true;
  }
  return false;
}

void Core::enqueue_waiter(int tid, std::coroutine_handle<> h) {
  run_queue_.push_back(PortWaiter{tid, h});
  maybe_grant();
}

void Core::yield(int tid) {
  if (resident_ != tid) return;
  assert(!port_busy_ && "cannot yield while an op holds the issue port");
  ++yields_;
  resident_blocked_ = true;
  maybe_grant();
}

void Core::maybe_grant() {
  if (port_busy_ || run_queue_empty()) return;
  const PortWaiter& w = run_queue_[rq_head_];
  if (resident_ != -1 && resident_ != w.tid && !resident_blocked_ &&
      within_slice()) {
    // Resident still owns its slice: the backstop timer preempts at its
    // end (the next release_port() past that point also grants).
    arm_preempt_timer(resident_since_ + cfg_.sched_quantum);
    return;
  }
  grant_front();
}

void Core::grant_front() {
  const PortWaiter w = run_queue_[rq_head_++];
  if (rq_head_ * 2 >= run_queue_.size()) {
    const auto consumed = static_cast<std::ptrdiff_t>(rq_head_);
    run_queue_.erase(run_queue_.begin(), run_queue_.begin() + consumed);
    rq_head_ = 0;
  }
  port_busy_ = true;
  Tick cost = 0;
  if (resident_ != w.tid) {
    if (resident_ != -1) {
      ++ctx_switches_;
      for (auto& h : hooks_) h(resident_, w.tid);
      cost = cfg_.ctx_switch_cost;
    }
    resident_ = w.tid;
    resident_since_ = eq_.now();
  }
  resident_blocked_ = false;
  const auto h = w.h;
  eq_.schedule_in(cost, [h] { h.resume(); });
}

void Core::arm_preempt_timer(Tick when) {
  if (preempt_armed_) return;
  preempt_armed_ = true;
  eq_.schedule_at(when, [this] {
    preempt_armed_ = false;
    maybe_grant();
  });
}

Co<void> SimThread::park(WaitQueue& wq, std::uint64_t expected) const {
  if (wq.epoch() != expected) co_return;  // wake already happened
  EventQueue& eq = core->eq();
  obs::TraceBuffer* const tb = eq.trace();
  const std::uint32_t lane = obs::thread_tid(core->id(), tid);
  if (tb) tb->begin(eq.now(), lane, "sim", "park");
  core->yield(tid);
  co_await wq.park(expected);
  if (tb) tb->end(eq.now(), lane, "sim", "park");
}

Co<void> SimThread::acquire_credits(CreditGate& g, std::uint64_t want) const {
  if (g.try_acquire(want)) co_return;
  EventQueue& eq = core->eq();
  obs::TraceBuffer* const tb = eq.trace();
  const std::uint32_t lane = obs::thread_tid(core->id(), tid);
  if (tb) tb->begin(eq.now(), lane, "sim", "credit_wait", "want", want);
  core->yield(tid);
  co_await g.acquire(want);
  if (tb) tb->end(eq.now(), lane, "sim", "credit_wait");
}

Co<std::size_t> SimThread::park_any(
    std::span<WaitQueue* const> wqs,
    std::span<const std::uint64_t> gates) const {
  // Fall through without yielding when a wake already landed on any queue.
  for (std::size_t i = 0; i < wqs.size(); ++i)
    if (wqs[i]->epoch() != gates[i]) co_return i;
  EventQueue& eq = core->eq();
  obs::TraceBuffer* const tb = eq.trace();
  const std::uint32_t lane = obs::thread_tid(core->id(), tid);
  if (tb) tb->begin(eq.now(), lane, "sim", "park_any", "n", wqs.size());
  core->yield(tid);
  const std::size_t idx = co_await ParkAny(wqs, gates);
  if (tb) tb->end(eq.now(), lane, "sim", "park_any");
  co_return idx;
}

// --- operations --------------------------------------------------------------

Co<MemResult> Core::issue(int tid, MemRequest req) {
  co_await acquire_port(tid);
  co_await Delay(eq_, cfg_.issue_cost);
  req.core = id_;
  AsyncOp<MemResult> op;
  mem_.issue(req, [&op](MemResult r) { op.complete(r); });
  MemResult r = co_await op;
  release_port();
  co_return r;
}

Co<void> Core::compute(int tid, std::uint64_t cycles) {
  co_await acquire_port(tid);
  co_await Delay(eq_, cycles);
  release_port();
}

Co<std::uint64_t> Core::load(int tid, Addr a, unsigned size) {
  MemResult r = co_await issue(tid, {MemOp::kLoad, a, size, 0, 0, nullptr, id_});
  co_return r.value;
}

Co<void> Core::store(int tid, Addr a, std::uint64_t v, unsigned size) {
  co_await issue(tid, {MemOp::kStore, a, size, v, 0, nullptr, id_});
}

Co<bool> Core::cas64(int tid, Addr a, std::uint64_t expected,
                     std::uint64_t desired) {
  MemRequest req{MemOp::kCas64, a, 8, expected, desired, nullptr, id_};
  co_await Delay(eq_, cfg_.atomic_extra);
  MemResult r = co_await issue(tid, req);
  co_return r.ok;
}

Co<std::uint64_t> Core::fetch_add64(int tid, Addr a, std::uint64_t delta) {
  MemRequest req{MemOp::kFetchAdd64, a, 8, delta, 0, nullptr, id_};
  co_await Delay(eq_, cfg_.atomic_extra);
  MemResult r = co_await issue(tid, req);
  co_return r.value;
}

Co<std::uint64_t> Core::swap64(int tid, Addr a, std::uint64_t v) {
  MemRequest req{MemOp::kSwap64, a, 8, v, 0, nullptr, id_};
  co_await Delay(eq_, cfg_.atomic_extra);
  MemResult r = co_await issue(tid, req);
  co_return r.value;
}

Co<void> Core::load_line(int tid, Addr a, void* out) {
  co_await issue(tid, {MemOp::kLoadLine, a, 64, 0, 0, out, id_});
}

Co<void> Core::store_line(int tid, Addr a, const void* in) {
  co_await issue(tid,
                 {MemOp::kStoreLine, a, 64, 0, 0, const_cast<void*>(in), id_});
}

}  // namespace vl::sim
