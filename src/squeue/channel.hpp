#pragma once
// Channel API v2: the uniform M:N message-channel abstraction over every
// queue implementation the paper compares (BLFQ / ZMQ / VL / VL-ideal /
// CAF), so each benchmark workload runs unmodified over all of them.
//
// A message is 1..7 doublewords — the largest payload a single VL line
// carries alongside its 2 B control region (Fig. 10). How a backend moves
// those words is its own business: BLFQ/ZMQ copy them into shared ring
// cells, VL packs them into one pushed line, CAF transfers them one 64-bit
// register value at a time through its queue-management device.
//
// The v2 core each backend implements is *non-blocking and typed*:
//
//   try_send / try_recv       one-message attempts returning SendResult /
//                             RecvResult — a refusal says *why* (ring/buffer
//                             full vs per-SQI/per-class quota NACK vs empty),
//                             so callers can shed, retry, or park on the
//                             right futex.
//   try_send_many/try_recv_many  batched attempts over std::span<Msg>.
//                             Backends amortize their per-message device
//                             cost: VL packs a run of lines under one
//                             prodBuf quota acquisition and one port
//                             transaction, CAF opens a multi-frame credit
//                             grant once, ZMQ/BLFQ reserve a contiguous
//                             ring run under one lock / one CAS claim. The
//                             base-class fallback loops the single-message
//                             core, so a backend that cannot batch is still
//                             correct.
//
// Blocking send/recv/send_many/recv_many are thin wrappers over that core:
// a retry loop around the try_* attempt plus a backend-directed blocking
// policy (send_blocked/recv_blocked) — park on the backend's futex where
// one exists (ZMQ rings, CAF credits, VL quota/space), poll where the paper
// says the backend polls (BLFQ, the VL consumer's § III-B control-word
// discovery, CAF empty dequeues).
//
// Wait-any/select over N channels lives in squeue/selector.hpp, built on
// recv_wq() (the consumer-readiness futex, where the backend has one) and
// the sim layer's ParkAny.

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "obs/tracer.hpp"
#include "sim/core.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vl::squeue {

struct Msg {
  std::array<std::uint64_t, 7> w{};
  std::uint8_t n = 0;
  /// Service class, honoured by the backends that model hardware QoS (CAF
  /// per-class credit caps, VL per-class prodBuf quotas) and carried
  /// through the software rings so per-class accounting stays truthful on
  /// BLFQ/ZMQ too. Not part of equality — it routes, it is not payload.
  QosClass qos = QosClass::kStandard;

  static Msg one(std::uint64_t v) {
    Msg m;
    m.w[0] = v;
    m.n = 1;
    return m;
  }
  static Msg words(std::initializer_list<std::uint64_t> ws) {
    Msg m;
    assert(ws.size() >= 1 && ws.size() <= 7);
    for (auto v : ws) m.w[m.n++] = v;
    return m;
  }
  bool operator==(const Msg& o) const {
    if (n != o.n) return false;
    for (std::uint8_t i = 0; i < n; ++i)
      if (w[i] != o.w[i]) return false;
    return true;
  }
};

/// Why a try_send refused. kFull is capacity back-pressure (ring at its
/// high-water mark, prodBuf out of slots, CAF queue budget exhausted):
/// any drain may clear it. kQuota is a per-SQI or per-class quota NACK
/// (isa::kVlNackQuota, CAF class caps): only *this* queue's (or class's)
/// drain clears it, so parking on the global space futex would be wrong.
enum class SendStatus : std::uint8_t { kOk = 0, kFull, kQuota };

struct SendResult {
  SendStatus status = SendStatus::kOk;
  bool ok() const { return status == SendStatus::kOk; }
};

enum class RecvStatus : std::uint8_t { kOk = 0, kEmpty };

struct RecvResult {
  RecvStatus status = RecvStatus::kEmpty;
  Msg msg{};
  bool ok() const { return status == RecvStatus::kOk; }
};

/// Outcome of a batched send attempt: how much of the span was accepted,
/// and — when short — why the batch stopped.
struct SendManyResult {
  std::size_t sent = 0;
  SendStatus status = SendStatus::kOk;  ///< kOk iff the whole span went.
};

class Channel {
 public:
  virtual ~Channel() = default;

  // --- v2 non-blocking core -------------------------------------------------

  /// One-message non-blocking send attempt.
  virtual sim::Co<SendResult> try_send(sim::SimThread t, const Msg& msg) = 0;

  /// One-message non-blocking receive attempt.
  virtual sim::Co<RecvResult> try_recv(sim::SimThread t) = 0;

  /// Batched non-blocking send: accepts a prefix of `msgs` (possibly
  /// empty). Backends override with their amortized fast path; this
  /// fallback loops the single-message core.
  virtual sim::Co<SendManyResult> try_send_many(sim::SimThread t,
                                                std::span<const Msg> msgs) {
    SendManyResult r;
    for (const Msg& m : msgs) {
      const SendResult s = co_await try_send(t, m);
      if (!s.ok()) {
        r.status = s.status;
        co_return r;
      }
      ++r.sent;
    }
    co_return r;
  }

  /// Batched non-blocking receive: fills a prefix of `out`, returns the
  /// count. Stops at the first empty probe.
  virtual sim::Co<std::size_t> try_recv_many(sim::SimThread t,
                                             std::span<Msg> out) {
    std::size_t got = 0;
    for (Msg& slot : out) {
      const RecvResult r = co_await try_recv(t);
      if (!r.ok()) break;
      slot = r.msg;
      ++got;
    }
    co_return got;
  }

  /// Current queued-message estimate (device-resident backlog for VL —
  /// the quantity back-pressure acts on; exact ring/buffer occupancy for
  /// the software and CAF backends).
  virtual std::uint64_t depth() const = 0;

  /// Consumer-readiness futex: woken when a message may have become
  /// receivable. nullptr for backends whose consumers discover data by
  /// polling (BLFQ, the VL § III-B control word, CAF register reads) —
  /// Selector and the blocking wrappers then poll at sim::kDiscoveryPoll.
  virtual sim::WaitQueue* recv_wq() { return nullptr; }

  /// Consumer-side endpoint re-registration (the lifecycle plane's
  /// reconfig@ event): drop and re-arm whatever receive-side device state
  /// the calling thread's endpoint holds, without losing messages. VL
  /// channels implement it as Consumer::migrate() onto the same thread —
  /// the paper's § III-B recovery path. Returns false where the backend
  /// has no such state (software rings, CAF): nothing to re-register.
  virtual bool reconfigure(sim::SimThread) { return false; }

  // --- blocking wrappers over the core -------------------------------------
  // Virtual so instrumentation wrappers (LatencyChannel) can interpose, but
  // every backend inherits these: the backend-specific part is only the
  // blocking *policy* below.

  /// Blocking send (applies the backend's back-pressure policy).
  virtual sim::Co<void> send(sim::SimThread t, Msg msg) {
    sim::EventQueue& eq = t.core->eq();
    obs::TraceBuffer* const tb = eq.trace();
    const std::uint32_t lane = obs::thread_tid(t.core->id(), t.tid);
    if (tb) tb->begin(eq.now(), lane, "chan", "send");
    BlockGates g;
    for (;;) {
      sample_send_gates(g, msg);  // futex protocol: epochs before the attempt
      const SendResult r = co_await try_send(t, msg);
      if (r.ok()) break;
      if (tb)
        tb->instant(eq.now(), lane, "chan",
                    r.status == SendStatus::kQuota ? "nack_quota"
                                                   : "nack_full",
                    "qos", static_cast<std::uint64_t>(msg.qos));
      co_await send_blocked(t, r.status, g, msg);
    }
    if (tb) tb->end(eq.now(), lane, "chan", "send");
  }

  /// Blocking receive of one message.
  virtual sim::Co<Msg> recv(sim::SimThread t) {
    sim::EventQueue& eq = t.core->eq();
    obs::TraceBuffer* const tb = eq.trace();
    const std::uint32_t lane = obs::thread_tid(t.core->id(), t.tid);
    if (tb) tb->begin(eq.now(), lane, "chan", "recv");
    for (;;) {
      const std::uint64_t gate = sample_recv_gate();
      RecvResult r = co_await try_recv(t);
      if (r.ok()) {
        if (tb) tb->end(eq.now(), lane, "chan", "recv");
        co_return r.msg;
      }
      co_await recv_blocked(t, gate);
    }
  }

  /// Blocking batched send: delivers the whole span, batching as far as
  /// the backend's fast path allows per lap and applying the blocking
  /// policy between laps.
  virtual sim::Co<void> send_many(sim::SimThread t, std::span<const Msg> msgs) {
    sim::EventQueue& eq = t.core->eq();
    obs::TraceBuffer* const tb = eq.trace();
    const std::uint32_t lane = obs::thread_tid(t.core->id(), t.tid);
    if (tb) tb->begin(eq.now(), lane, "chan", "send_many", "n", msgs.size());
    BlockGates g;
    std::size_t done = 0;
    while (done < msgs.size()) {
      sample_send_gates(g, msgs[done]);
      const SendManyResult r = co_await try_send_many(t, msgs.subspan(done));
      done += r.sent;
      // Park only on an actual refusal; a short lap with status kOk (a
      // backend batching boundary, e.g. a CAF class-run end) retries
      // immediately.
      if (done < msgs.size() && r.status != SendStatus::kOk) {
        if (tb)
          tb->instant(eq.now(), lane, "chan",
                      r.status == SendStatus::kQuota ? "nack_quota"
                                                     : "nack_full",
                      "qos", static_cast<std::uint64_t>(msgs[done].qos));
        co_await send_blocked(t, r.status, g, msgs[done]);
      }
    }
    if (tb) tb->end(eq.now(), lane, "chan", "send_many");
  }

  /// Blocking batched receive: waits until at least `min_n` messages were
  /// received (min_n >= 1, capped at out.size()), then keeps draining
  /// opportunistically — without further blocking — up to out.size().
  virtual sim::Co<std::size_t> recv_many(sim::SimThread t, std::span<Msg> out,
                                         std::size_t min_n = 1) {
    if (out.empty()) co_return 0;
    if (min_n < 1) min_n = 1;
    if (min_n > out.size()) min_n = out.size();
    sim::EventQueue& eq = t.core->eq();
    obs::TraceBuffer* const tb = eq.trace();
    const std::uint32_t lane = obs::thread_tid(t.core->id(), t.tid);
    if (tb) tb->begin(eq.now(), lane, "chan", "recv_many", "cap", out.size());
    std::size_t got = 0;
    for (;;) {
      const std::uint64_t gate = sample_recv_gate();
      got += co_await try_recv_many(t, out.subspan(got));
      if (got >= min_n) {
        if (tb) tb->end(eq.now(), lane, "chan", "recv_many");
        co_return got;
      }
      co_await recv_blocked(t, gate);
    }
  }

  // Single-word convenience wrappers.
  sim::Co<void> send1(sim::SimThread t, std::uint64_t v) {
    co_await send(t, Msg::one(v));
  }
  sim::Co<std::uint64_t> recv1(sim::SimThread t) {
    const Msg m = co_await recv(t);
    co_return m.w[0];
  }

 protected:
  /// Wake epochs a blocking sender samples *before* its attempt, so a
  /// drain landing mid-attempt is never lost as a wakeup (the standard
  /// futex gate protocol). `baton` is VL's counted-space-wake baton (see
  /// VlChannel::send_blocked); other backends ignore it.
  struct BlockGates {
    std::uint64_t full = 0;
    std::uint64_t quota = 0;
    bool baton = false;
  };

  /// The message is passed so a class-aware backend (CAF class caps) can
  /// sample / park on its per-class credit futex.
  virtual void sample_send_gates(BlockGates&, const Msg&) {}
  virtual std::uint64_t sample_recv_gate() {
    sim::WaitQueue* wq = recv_wq();
    return wq ? wq->epoch() : 0;
  }

  /// Applied when a blocking send's attempt refused: park on the right
  /// backend futex, or poll. Default: plain poll backoff.
  virtual sim::Co<void> send_blocked(sim::SimThread t, SendStatus,
                                     BlockGates&, const Msg&) {
    co_await t.compute(sim::kDiscoveryPoll);
  }

  /// Applied when a blocking receive's attempt found nothing. Default:
  /// park on recv_wq() when the backend has one, else poll.
  virtual sim::Co<void> recv_blocked(sim::SimThread t, std::uint64_t gate) {
    if (sim::WaitQueue* wq = recv_wq())
      co_await t.park(*wq, gate);
    else
      co_await t.compute(sim::kDiscoveryPoll);
  }
};

}  // namespace vl::squeue
