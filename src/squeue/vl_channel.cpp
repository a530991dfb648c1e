#include "squeue/vl_channel.hpp"

#include <algorithm>
#include <vector>

namespace vl::squeue {

runtime::Producer& VlChannel::producer_for(sim::SimThread t) {
  const Key k{t.core->id(), t.tid};
  auto it = producers_.find(k);
  if (it == producers_.end()) {
    it = producers_
             .emplace(k, std::make_unique<runtime::Producer>(
                             lib_.machine(), q_, lib_.supervisor(), t,
                             buf_lines_))
             .first;
  }
  return *it->second;
}

runtime::Consumer& VlChannel::consumer_for(sim::SimThread t) {
  const Key k{t.core->id(), t.tid};
  auto it = consumers_.find(k);
  if (it == consumers_.end()) {
    it = consumers_
             .emplace(k, std::make_unique<runtime::Consumer>(
                             lib_.machine(), q_, lib_.supervisor(), t,
                             buf_lines_))
             .first;
  }
  return *it->second;
}

sim::Co<SendResult> VlChannel::try_send(sim::SimThread t, const Msg& msg) {
  runtime::Producer& p = producer_for(t);
  p.set_qos(msg.qos);  // endpoint class tag, carried in the frame's ctrl byte
  const int rc = co_await p.try_enqueue_raw(
      runtime::ElemSize::kDword,
      std::span<const std::uint64_t>(msg.w.data(), msg.n));
  co_return SendResult{rc == isa::kVlOk ? SendStatus::kOk : status_from(rc)};
}

sim::Co<SendManyResult> VlChannel::try_send_many(sim::SimThread t,
                                                 std::span<const Msg> msgs) {
  runtime::Producer& p = producer_for(t);
  SendManyResult r;
  while (r.sent < msgs.size()) {
    std::vector<runtime::LineView> views;
    const std::size_t lap = std::min<std::size_t>(msgs.size() - r.sent, 8);
    views.reserve(lap);
    for (std::size_t i = 0; i < lap; ++i) {
      const Msg& m = msgs[r.sent + i];
      views.push_back({m.w.data(), m.n, m.qos});
    }
    const runtime::BurstResult b = co_await p.try_enqueue_burst(views);
    r.sent += b.accepted;
    if (b.rc != isa::kVlOk) {
      r.status = status_from(b.rc);
      co_return r;
    }
  }
  co_return r;
}

sim::Co<void> VlChannel::send_many(sim::SimThread t,
                                   std::span<const Msg> msgs) {
  runtime::Producer& p = producer_for(t);
  std::size_t done = 0;
  while (done < msgs.size()) {
    std::vector<runtime::LineView> views;
    const std::size_t lap =
        std::min<std::size_t>(msgs.size() - done, buf_lines_);
    views.reserve(lap);
    for (std::size_t i = 0; i < lap; ++i) {
      const Msg& msg = msgs[done + i];
      views.push_back({msg.w.data(), msg.n, msg.qos});
    }
    // Each lap's lines are written into the endpoint ring ONCE; only the
    // fused push retries after back-pressure, and a full-buffer wait asks
    // for the whole remaining run, so one wake carries an n-slot grant and
    // batched injection stays batched under saturation.
    const std::size_t staged = co_await p.stage_burst(views);
    std::size_t pushed = 0;
    std::size_t credits = 0;
    for (;;) {
      const std::uint64_t gate = p.quota_gate();
      const runtime::BurstResult b =
          co_await p.push_staged(pushed, staged - pushed);
      pushed += b.accepted;
      credits -= std::min(credits, b.accepted);  // consumed with the slots
      if (pushed == staged) break;
      co_await p.await_room(b.rc == isa::kVlNackQuota, gate, staged - pushed,
                            credits);
    }
    done += staged;
  }
}

sim::Co<RecvResult> VlChannel::try_recv(sim::SimThread t) {
  runtime::Consumer& c = consumer_for(t);
  auto got = co_await c.try_dequeue_once();
  if (!got) co_return RecvResult{};
  RecvResult r;
  r.status = RecvStatus::kOk;
  r.msg.n = static_cast<std::uint8_t>(got->elems.size());
  r.msg.qos = got->qos;
  for (std::uint8_t i = 0; i < r.msg.n; ++i) r.msg.w[i] = got->elems[i];
  co_return r;
}

sim::Co<std::size_t> VlChannel::try_recv_many(sim::SimThread t,
                                              std::span<Msg> out) {
  runtime::Consumer& c = consumer_for(t);
  // Burst demand registration pins the run of messages to this endpoint,
  // so only the channel's sole consumer may hold registrations across
  // calls. A sharer's demand is a per-call LEASE: it probes one
  // registration at a time (queued data injects inside the fetch's
  // response window, so backlog still drains at full batch width) and
  // releases whatever stayed armed before returning, so no message can be
  // pinned to a ring nobody is polling.
  const bool sole = consumers_.size() == 1;
  if (sole && out.size() > 1)
    co_await c.arm_ahead(std::min<std::size_t>(out.size(), buf_lines_));
  std::size_t got = 0;
  auto take = [&out, &got](const runtime::Frame& f) {
    Msg& m = out[got++];
    m.n = static_cast<std::uint8_t>(f.elems.size());
    m.qos = f.qos;
    for (std::uint8_t i = 0; i < m.n; ++i) m.w[i] = f.elems[i];
  };
  while (got < out.size()) {
    auto f = co_await c.try_dequeue_once();
    // A sharer registers demand one line at a time, and its in-flight
    // injection needs the device's stash latency to land. Give that one
    // injection a bounded window before concluding the queue is dry —
    // otherwise the lease release below would bounce it on every call and
    // the caller could starve with data queued.
    constexpr int kLeasePolls = 5;
    constexpr Tick kLeasePollGap = 16;
    for (int w = 0; !f && !sole && w < kLeasePolls; ++w) {
      co_await t.compute(kLeasePollGap);
      f = co_await c.try_dequeue_once();
    }
    if (!f) break;
    take(*f);
  }
  if (!sole) {
    c.release_ahead();
    // Injections that landed in our lines while the lease was live are
    // already ours — sweep them out before handing demand back.
    while (got < out.size()) {
      auto f = co_await c.sweep_landed();
      if (!f) break;
      take(*f);
    }
  }
  co_return got;
}

void VlChannel::sample_send_gates(BlockGates& g, const Msg&) {
  // The space side is a credit gate (credits persist — no epoch needed);
  // only the per-SQI quota futex needs the lost-wake gate.
  g.quota = lib_.machine().vl_quota_wq(q_.vlrd_id, q_.sqi).epoch();
}

sim::Co<void> VlChannel::send_blocked(sim::SimThread t, SendStatus why,
                                      BlockGates& g, const Msg&) {
  std::size_t credits = g.baton ? 1 : 0;
  co_await producer_for(t).await_room(why == SendStatus::kQuota, g.quota, 1,
                                      credits);
  g.baton = credits != 0;
}

bool VlChannel::reconfigure(sim::SimThread t) {
  // migrate() onto the same thread is exactly the re-registration
  // ceremony: every pushable tag drops (in-flight injections reject and
  // recover device-side via § III-B) and the next dequeue from this
  // thread re-registers demand. Landed-but-unread ring lines survive —
  // try_dequeue_once / sweep_landed still read them.
  consumer_for(t).migrate(t);
  return true;
}

std::uint64_t VlChannel::depth() const {
  return lib_.machine().cluster().device(q_.vlrd_id).queued_data(q_.sqi);
}

std::uint64_t VlChannel::producer_retries() const {
  std::uint64_t n = 0;
  for (const auto& [k, p] : producers_) n += p->retries();
  return n;
}

}  // namespace vl::squeue
