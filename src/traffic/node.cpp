#include "traffic/node.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/sharded.hpp"
#include "traffic/cell.hpp"

namespace vl::traffic::node {

using squeue::Channel;
using squeue::Msg;
using sim::Co;
using sim::SimThread;

constexpr Tick kWindowBackoff = 32;  ///< Retry gap when a link is full.

std::uint64_t stamp(int tenant, int pid, Tick now) {
  return (static_cast<std::uint64_t>(tenant) << 56) |
         (static_cast<std::uint64_t>(pid & 0xff) << 48) | (now & kTickMask);
}

std::uint64_t split_seed(std::uint64_t seed, std::uint64_t salt) {
  return seed ^ (0x9e3779b97f4a7c15ull * (salt + 1));
}

Msg make_pill(std::uint64_t count) {
  Msg p;
  p.n = 1;
  p.w[0] = (kPillTenant << 56) | (count & kTickMask);
  return p;
}

std::uint8_t payload_words(squeue::Backend backend, std::uint8_t words) {
  return backend == squeue::Backend::kCaf ? std::uint8_t{1} : words;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

void require_runnable(const ScenarioSpec& spec, squeue::Backend backend,
                      const ShardedOptions* mesh) {
  const std::string err = validate(spec);
  if (!err.empty())
    throw std::invalid_argument("invalid scenario '" + spec.name + "': " + err);
  const std::string why = unsupported(spec, backend, mesh);
  if (!why.empty()) throw std::invalid_argument(why);
}

std::vector<int> producer_tenants(const ScenarioSpec& spec) {
  std::vector<int> out;
  const std::vector<int> split = tenant_producer_split(spec);
  for (std::size_t ti = 0; ti < split.size(); ++ti)
    out.insert(out.end(), static_cast<std::size_t>(split[ti]),
               static_cast<int>(ti));
  return out;
}

// --- Run ---------------------------------------------------------------------

Run::Run(const ScenarioSpec& spec, squeue::Backend backend, std::uint64_t seed,
         const obs::RunHooks* obs, int shards, bool sharded)
    : spec(spec), backend(backend), seed(seed), obs(obs), sharded(sharded) {
  trace = spec.replay;
  if (obs && obs->recorder) {
    rec = obs->recorder;
    rec->begin(spec.name, squeue::to_string(backend), seed,
               static_cast<std::uint32_t>(spec.producers),
               static_cast<std::uint32_t>(spec.tenants.size()), sharded);
  }

  for (const auto& t : spec.tenants)
    frame = std::max(frame, payload_words(backend, t.msg_words));
  // A foreign trace may carry wider payloads than the spec. CAF stays at
  // its single-word frame: replay clamps record widths to 1 there, so
  // widening the channel would desynchronize the fixed frame length from
  // the messages actually sent.
  if (trace && backend != squeue::Backend::kCaf)
    for (const auto& r : trace->records) frame = std::max(frame, r.words);

  if (!spec.faults.empty()) {
    plane = std::make_unique<fault::FaultPlane>(spec.faults, shards);
    chan_faults = plane->mutates_channels() &&
                  (backend == squeue::Backend::kBlfq ||
                   backend == squeue::Backend::kZmq);
  }

  // The supervisor consumes timeline cuts, so a supervised run without
  // caller-provided hooks still samples — into a private local timeline.
  tl = obs ? obs->timeline : nullptr;
  if (spec.supervisor && spec.qos &&
      (backend == squeue::Backend::kVl || backend == squeue::Backend::kCaf)) {
    bool present[kQosClasses] = {};
    for (const auto& t : spec.tenants)
      present[static_cast<std::size_t>(t.qos)] = true;
    sup = std::make_unique<runtime::QosSupervisor>(
        runtime::QosSupervisor::Config{}, present);
    if (!tl) tl = &local_tl_;
  }
}

void Run::register_series(const sim::ShardedSim* ssim) {
  if (!tl) return;
  obs::Timeline& t = *tl;
  // One series summing a per-node counter over every node.
  auto add_sum = [&](const std::string& name, auto view) {
    t.add_series(name, [this, view] {
      std::uint64_t n = 0;
      for (const Node* nd : nodes) n += view(*nd);
      return static_cast<double>(n);
    });
  };
  add_sum("eq.executed", [](const Node& nd) { return nd.m.eq().executed(); });
  add_sum("chan.depth", [](const Node& nd) {
    std::uint64_t d = 0;
    for (const auto& st : nd.stages)
      for (const auto& sc : st.channels) d += sc.ch->depth();
    return d;
  });
  if (ssim)
    add_sum("cross_shard.ingress", [](const Node& nd) { return nd.cross_in; });
  add_sum("vlrd.push_quota_nacks", [](const Node& nd) {
    return nd.m.vlrd_stats().push_quota_nacks;
  });
  add_sum("vlrd.fetch_nacks",
          [](const Node& nd) { return nd.m.vlrd_stats().fetch_nacks; });
  if (backend == squeue::Backend::kCaf)
    for (std::size_t c = 0; c < kQosClasses; ++c) {
      const auto cls = static_cast<QosClass>(c);
      add_sum(std::string("caf.occupancy.") + to_string(cls),
              [cls](const Node& nd) {
                return nd.f.caf_device().class_occupancy(cls);
              });
    }
  if (ssim)
    for (int sh = 0; sh < static_cast<int>(nodes.size()); ++sh) {
      const std::string base = "shard" + std::to_string(sh);
      t.add_series(base + ".window_stalls", [ssim, sh] {
        return static_cast<double>(ssim->shard_window_stalls(sh));
      });
      t.add_series(base + ".partition_stalls", [ssim, sh] {
        return static_cast<double>(ssim->shard_partition_stalls(sh));
      });
    }

  bool present[kQosClasses] = {};
  for (const auto& ts : spec.tenants)
    present[static_cast<std::size_t>(ts.qos)] = true;
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    if (!present[c]) continue;
    const auto cls = static_cast<QosClass>(c);
    const std::string base = std::string("class.") + to_string(cls) + ".";
    // Visit every tenant of the class across all nodes.
    auto each = [this, cls](auto&& fn) {
      for (const Node* nd : nodes)
        for (const auto& tm : nd->tenants)
          if (tm.qos == cls) fn(tm);
    };
    using Counter = std::uint64_t TenantMetrics::*;
    const std::pair<const char*, Counter> counters[] = {
        {"delivered", &TenantMetrics::delivered},
        {"sent", &TenantMetrics::sent},
        {"blocked_ticks", &TenantMetrics::blocked_ticks}};
    for (const auto& [name, field] : counters)
      t.add_series(base + name, [each, field] {
        double acc = 0.0;
        each([&](const TenantMetrics& tm) {
          acc += static_cast<double>(tm.*field);
        });
        return acc;
      });
    t.add_series(base + "p99", [each] {
      LogHistogram h;
      each([&](const TenantMetrics& tm) { h.merge(tm.latency); });
      return static_cast<double>(h.percentile(99));
    });
    t.add_series(base + "slo_within", [each] {
      // Cumulative in-SLO deliveries — the raw counter behind slo_att_pct.
      // The QoS supervisor differences consecutive epochs of this and of
      // `delivered` to get a *windowed* attainment, which reacts to the
      // current epoch instead of averaging over the whole run.
      std::uint64_t within = 0;
      each([&](const TenantMetrics& tm) { within += tm.slo_within(); });
      return static_cast<double>(within);
    });
    t.add_series(base + "slo_att_pct", [each] {
      // ClassAgg::slo_attained_pct over the class's SLO-carrying tenants.
      ClassAgg agg;
      each([&](const TenantMetrics& tm) {
        if (!tm.slo_p99) return;
        agg.slo_delivered += tm.delivered;
        agg.slo_within += tm.slo_within();
      });
      return agg.slo_attained_pct();
    });
  }
  if (plane) plane->register_series(t);
  if (sup) sup->register_series(t);
}

obs::Tracer* Run::trace_nodes() const {
  if (!obs || !obs->tracer) return nullptr;
  obs::Tracer& tr = *obs->tracer;
  for (Node* nd : nodes) {
    const auto pid = static_cast<std::uint32_t>(nd->id);
    nd->m.eq().set_trace(&tr.buffer(pid));
    tr.set_process_name(
        pid, sharded ? "shard" + std::to_string(nd->id) : "machine");
  }
  return &tr;
}

EngineResult Run::result(int scale) const {
  EngineResult r;
  r.scenario = spec.name;
  r.backend = squeue::to_string(backend);
  r.seed = seed;
  r.scale = scale;
  return r;
}

void Run::finish() {
  if (tl) {
    Tick end = 0;
    for (const Node* nd : nodes) end = std::max(end, nd->m.now());
    tl->sample(end);
    tl->detach();
  }
  for (Node* nd : nodes) nd->m.eq().set_trace(nullptr);
}

// --- Node --------------------------------------------------------------------

Node::Node(Run& run, int id, runtime::Machine& m, squeue::ChannelFactory& f,
           const ScenarioSpec& local)
    : run(run), id(id), m(m), f(f) {
  run.nodes.push_back(this);
  if (run.plane) run.plane->arm_machine(m, id);
  const squeue::Backend b = run.backend;
  if (run.sup)
    run.sup->attach(m.cfg(), channel_demand_for(local, b, m.cfg()),
                    b == squeue::Backend::kVl ? &m.cluster() : nullptr,
                    b == squeue::Backend::kCaf ? &f.caf_device() : nullptr);
  for (const auto& t : run.spec.tenants) {
    TenantMetrics tm;
    tm.tenant = t.name;
    tm.qos = t.qos;
    tm.slo_p99 = t.slo_p99;
    tenants.push_back(std::move(tm));
  }
}

void Node::add_stage(const std::string& prefix, int nchan, int workers) {
  Stage st;
  for (int c = 0; c < nchan; ++c) {
    StageChannel sc;
    sc.label = prefix + "c" + std::to_string(c);
    sc.ch = f.make(sc.label, run.spec.capacity_hint, run.frame);
    sc.workers = workers;
    st.workers_remaining += workers;
    DepthSeries d;
    d.channel = sc.label;
    depths.push_back(std::move(d));
    st.channels.push_back(std::move(sc));
  }
  stages.push_back(std::move(st));
}

ScenarioMetrics Node::take_metrics(Tick ticks) {
  ScenarioMetrics sm;
  sm.tenants = std::move(tenants);
  sm.depths = std::move(depths);
  sm.ticks = ticks;
  sm.ns = m.ns(ticks);
  return sm;
}

sim::SimThread Node::next_thread() {
  const CoreId c = core_;
  core_ = (core_ + 1) % m.num_cores();
  return m.thread_on(c);
}

// --- actors ------------------------------------------------------------------

Co<void> producer(Node& nd, SimThread t, int tenant, int pid,
                  std::uint64_t target) {
  Run& run = nd.run;
  const ScenarioSpec& spec = run.spec;
  Routing& rt = *run.routing;
  fault::FaultPlane* fp = run.plane.get();
  const TenantSpec& ts = spec.tenants[static_cast<std::size_t>(tenant)];
  auto& eq = nd.m.eq();
  auto& tm = nd.tenants[static_cast<std::size_t>(tenant)];
  Stage& s0 = nd.stages.front();

  // Message source: the tenant's arrival process, or this pid's recorded
  // stream (whose length is then the budget).
  std::unique_ptr<replay::TraceArrival> rep;
  std::unique_ptr<ArrivalProcess> arrival;
  if (run.trace) {
    rep = std::make_unique<replay::TraceArrival>(
        *run.trace, static_cast<std::uint16_t>(pid));
    target = rep->size();
  } else {
    arrival = make_arrival(ts.arrival,
                           split_seed(run.seed, rt.arrival_salt + pid));
  }
  Xoshiro256 route_rng(split_seed(run.seed, rt.route_salt + pid));
  Channel* ack = spec.closed_loop
                     ? nd.acks[static_cast<std::size_t>(pid)].get()
                     : nullptr;
  const std::uint8_t words = payload_words(run.backend, ts.msg_words);
  // Closed loops cap the effective batch at the window — a producer may
  // never hold more unacked messages than its in-flight budget.
  const std::uint64_t batch =
      ack ? std::min<std::uint64_t>(ts.batch, spec.window)
          : std::max<std::uint32_t>(ts.batch, 1);
  int outstanding = 0;
  // Per-channel sub-batches: every message routes individually and
  // accumulates into its channel's sub-batch; at lap end the non-empty
  // sub-batches flush in ascending channel order. With batch == 1 a lap is
  // one message, so routing replays the historic per-lap draws exactly.
  std::vector<std::vector<Msg>> sub(s0.channels.size());
  std::uint64_t seq = 0;  // routing counter: advances per generated message

  for (std::uint64_t i = 0; i < target;) {
    // Assemble up to `batch` messages: each paces on its source and is
    // stamped at its generation instant, so batching adds the producer-side
    // accumulation delay to the measured latency — exactly the trade
    // batched injection makes.
    std::uint64_t lap = 0;
    while (lap < batch && i < target) {
      if (!rep && run.lp && run.lp->tenant_has_events(tenant)) {
        Tick at;
        while ((at = run.lp->next_active(tenant, eq.now())) != 0) {
          if (at == replay::LifecyclePlane::kNever) {
            // Departed for good: the rest of the budget is forfeited, not
            // dropped — never generated, so conservation stays exact and
            // the count-carrying pills still match what was fed.
            run.lp->note_forfeit(target - i);
            i = target;
            break;
          }
          co_await sim::Delay(eq, at - eq.now());
        }
        if (i >= target) break;
      }
      Msg msg;
      Dest d;
      int copies = 1;
      std::uint64_t filler = i;
      if (rep) {
        const Tick gap = rep->next_gap(eq.now());
        if (gap) co_await sim::Delay(eq, gap);
        const replay::TraceRecord& r = rep->record();
        ++tm.generated;
        d = rt.place(r.dst);
        msg.n = payload_words(run.backend, r.words);
        msg.qos = r.cls;
        filler = lap;
        rep->advance();
      } else {
        Tick gap = arrival->next_gap(eq.now());
        if (fp) gap = fp->scale_gap(nd.id, ts.qos, eq.now(), gap);
        if (gap) co_await sim::Delay(eq, gap);
        if (spec.produce_compute) co_await t.compute(spec.produce_compute);
        ++tm.generated;
        // Channel-level fault fate: what was dropped is never counted as
        // sent or fed, so the pill drain counts stay exact.
        auto fate = [&] {
          return run.chan_faults ? fp->chan_copies(nd.id, eq.now()) : 1;
        };
        if (rt.fate_first) copies = fate();
        if (copies) {
          d = rt.place(rt.draw(route_rng, seq++));
          if (ts.drop_depth &&
              s0.channels[static_cast<std::size_t>(d.ch)].ch->depth() >=
                  ts.drop_depth)
            copies = 0;
          else if (!rt.fate_first)
            copies = fate();
        }
        if (copies == 0) {
          ++tm.dropped;
          ++i;
          if (rt.fate_first) ++lap;
          continue;
        }
        msg.n = words;
        msg.qos = ts.qos;
      }
      msg.w[0] = stamp(tenant, pid, eq.now());
      for (std::uint8_t w = 1; w < msg.n; ++w)
        msg.w[w] = (static_cast<std::uint64_t>(tenant) << 32) | filler;
      if (run.rec)  // re-recording a replay reproduces the trace
        for (int k = 0; k < copies; ++k)
          run.rec->on_send(static_cast<std::uint16_t>(pid),
                           static_cast<std::uint16_t>(tenant), msg.qos, msg.n,
                           d.key, eq.now());
      ++i;
      ++lap;
      if (d.shard == nd.id) {
        for (int k = 0; k < copies; ++k)
          sub[static_cast<std::size_t>(d.ch)].push_back(msg);
        continue;
      }
      // Remote: respect the link's in-flight window, then hand the message
      // to the destination's ingress.
      for (int k = 0; k < copies; ++k) {
        while (!rt.can_post(nd.id, d.shard)) {
          co_await sim::Delay(eq, kWindowBackoff);
          tm.blocked_ticks += kWindowBackoff;
        }
        rt.post(nd.id, d, msg);
        ++tm.sent;
      }
    }
    // Flush the lap: ascending channel order, closed-loop window re-checked
    // per sub-batch so outstanding never exceeds the in-flight budget.
    for (std::size_t c = 0; c < sub.size(); ++c) {
      auto& b = sub[c];
      if (b.empty()) continue;
      if (ack)
        while (outstanding + static_cast<int>(b.size()) > spec.window) {
          co_await ack->recv1(t);
          --outstanding;
        }
      const Tick send_start = eq.now();
      co_await s0.channels[c].ch->send_many(t, b);  // one batched injection
      tm.blocked_ticks += eq.now() - send_start;   // time-in-backpressure
      tm.sent += b.size();
      s0.channels[c].fed += b.size();
      if (ack) outstanding += static_cast<int>(b.size());
      b.clear();
    }
  }
  if (ack)
    while (outstanding > 0) {
      co_await ack->recv1(t);
      --outstanding;
    }
  if (--nd.producers_remaining == 0) nd.producers_done.complete(0);
}

Co<void> worker(Node& nd, SimThread t, int stage_idx, int chan_idx) {
  Run& run = nd.run;
  Stage& st = nd.stages[static_cast<std::size_t>(stage_idx)];
  StageChannel& sc = st.channels[static_cast<std::size_t>(chan_idx)];
  Channel& ch = *sc.ch;
  const bool final_stage =
      stage_idx + 1 == static_cast<int>(nd.stages.size());
  auto& eq = nd.m.eq();
  // Flattened channel ordinal (the reconfig@:channel= numbering — same
  // order as the depth series).
  int flat = chan_idx;
  for (int s = 0; s < stage_idx; ++s)
    flat += static_cast<int>(nd.stages[static_cast<std::size_t>(s)]
                                 .channels.size());

  // A channel's sole worker drains opportunistically in batches and
  // terminates on the exact payload count its pill carries — arrival order
  // is not trusted, because VL's injection-retry recovery can surface the
  // pill ahead of a straggling payload line. Shared channels stay on
  // one-message receives and first-pill semantics: the coordinator sends
  // one pill per worker, and their payload split is not knowable up front.
  const std::size_t window = sc.workers == 1 ? std::size_t{8} : 1;
  std::vector<Msg> drained(window);
  std::vector<Msg> relay;
  std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t received = 0;

  while (received < expected) {
    // SQI re-registration (reconfig@): between receive laps the consumer
    // drops its armed demand and re-registers — § III-B migration onto the
    // same thread. Landed frames stay readable, so no message is lost.
    if (run.lp && run.lp->take_reconfig(flat, eq.now()) && ch.reconfigure(t))
      run.lp->note_reconfig_applied();
    const std::size_t got =
        co_await ch.recv_many(t, std::span<Msg>(drained.data(), window), 1);
    relay.clear();
    for (std::size_t k = 0; k < got; ++k) {
      Msg& msg = drained[k];
      const std::uint64_t tenant = msg.w[0] >> 56;
      if (tenant == kPillTenant) {
        if (sc.workers == 1) {
          expected = msg.w[0] & kTickMask;  // drain target; keep going
          continue;
        }
        expected = received;  // shared channel: this pill is ours, stop
        break;
      }
      if (run.spec.consume_compute)
        co_await t.compute(run.spec.consume_compute);
      if (final_stage) {
        auto& tm = nd.tenants[static_cast<std::size_t>(tenant)];
        ++tm.delivered;
        tm.latency.record((eq.now() - msg.w[0]) & kTickMask);
        nd.digest = fnv1a(fnv1a(nd.digest, eq.now()), msg.w[0]);
        if (run.spec.closed_loop) {
          const auto pid = static_cast<std::size_t>((msg.w[0] >> 48) & 0xff);
          co_await nd.acks[pid]->send1(t, 1);
        }
      } else {
        // Pipeline relay: preserve the stamp so latency stays end-to-end.
        relay.push_back(msg);
      }
      ++received;
    }
    if (!relay.empty()) {
      StageChannel& next =
          nd.stages[static_cast<std::size_t>(stage_idx) + 1].channels.front();
      co_await next.ch->send_many(t, relay);  // relay the run as one batch
      next.fed += relay.size();
    }
  }

  if (--st.workers_remaining > 0) co_return;
  if (final_stage)
    nd.all_done = true;
  else  // all payload is already enqueued downstream: pills arrive after it
    co_await send_pills(nd.stages[static_cast<std::size_t>(stage_idx) + 1], t);
}

Co<void> send_pills(Stage& st, SimThread t) {
  for (auto& sc : st.channels)
    for (int k = 0; k < sc.workers; ++k)
      co_await sc.ch->send(t, make_pill(sc.workers == 1 ? sc.fed : 0));
}

Co<void> depth_sampler(Node& nd) {
  for (;;) {
    std::size_t i = 0;
    for (auto& st : nd.stages)
      for (auto& sc : st.channels) {
        auto& d = nd.depths[i++];
        d.depth.record(static_cast<double>(sc.ch->depth()));
        ++d.samples;
      }
    if (nd.all_done) break;
    co_await sim::Delay(nd.m.eq(), nd.run.spec.depth_sample_period);
  }
}

}  // namespace vl::traffic::node
