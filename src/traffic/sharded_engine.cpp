#include "traffic/sharded_engine.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "sim/sharded.hpp"
#include "traffic/node.hpp"
#include "traffic/shard_router.hpp"

namespace vl::traffic {

namespace {

using squeue::Msg;
using sim::Co;
using sim::SimThread;

constexpr std::uint64_t kRebalancePeriod = 64;  ///< Barriers between checks.

/// A message in flight on an inter-shard link, bound for channel `ch` of
/// the destination shard.
struct InMsg {
  Msg msg;
  int ch;
};

/// One shard: a complete node on its own machine, plus its link landing
/// zone — cross-shard deliveries append to `ingress` (on this shard's event
/// queue) and the relay thread injects them into the node's channels.
struct Shard {
  std::unique_ptr<runtime::Machine> m;
  std::unique_ptr<squeue::ChannelFactory> f;
  std::unique_ptr<node::Node> nd;
  std::deque<InMsg> ingress;
  std::unique_ptr<sim::WaitQueue> ingress_wq;
  bool stop = false;  ///< All producers (mesh-wide) done; relay may poison.
};

/// The mesh's routing: each message draws a destination tenant from the
/// population; the ring decides which shard serves it and the tenant hash
/// which of that shard's channels. A replayed record's dst is the logical
/// tenant, re-resolved here, so a replay under a different shard count (or
/// with rebalancing) still delivers the same per-class message set.
class MeshRouting final : public node::Routing {
 public:
  MeshRouting(std::uint64_t population, ShardRouter& ring,
              sim::ShardedSim& ssim,
              std::vector<std::unique_ptr<Shard>>& shards)
      : Routing(0x5000, 0x6000, /*fate_first=*/true),
        population_(population),
        ring_(ring),
        ssim_(ssim),
        shards_(shards) {}

  std::uint64_t draw(Xoshiro256& rng, std::uint64_t) const override {
    return rng.below(population_);
  }
  node::Dest place(std::uint64_t key) const override {
    const std::uint64_t dest = key % population_;
    const int dst = ring_.shard_for(dest);
    const auto nch = static_cast<std::uint64_t>(
        shards_[static_cast<std::size_t>(dst)]
            ->nd->stages.front()
            .channels.size());
    return {dst, static_cast<int>(ShardRouter::hash(dest) % nch), dest};
  }
  bool can_post(int from, int to) override { return ssim_.can_post(from, to); }
  /// Hand the message to the destination's ingress at now + link latency.
  void post(int from, const node::Dest& d, const Msg& msg) override {
    Shard* s = shards_[static_cast<std::size_t>(d.shard)].get();
    ssim_.post(from, d.shard, [s, msg, ch = d.ch] {
      node::Node& nd = *s->nd;
      nd.digest = node::fnv1a(node::fnv1a(nd.digest, nd.m.now()), msg.w[0]);
      ++nd.cross_in;
      s->ingress.push_back(InMsg{msg, ch});
      s->ingress_wq->wake_one();
    });
  }

 private:
  std::uint64_t population_;
  ShardRouter& ring_;
  sim::ShardedSim& ssim_;
  std::vector<std::unique_ptr<Shard>>& shards_;
};

/// Per-shard link relay: drains the ingress deque into per-channel
/// sub-batches and injects them with one send_many per channel. Once the
/// stop flag is up (all producers mesh-wide finished — every delivery is
/// already scheduled, and same-tick events fire in schedule order, so the
/// flag can never overtake payload) and the ingress is dry, it poisons
/// each channel's sole worker.
Co<void> relay(Shard& sh, SimThread t) {
  auto& channels = sh.nd->stages.front().channels;
  std::vector<std::vector<Msg>> sub(channels.size());
  for (;;) {
    const auto gate = sh.ingress_wq->epoch();
    if (sh.ingress.empty()) {
      if (sh.stop) break;
      co_await t.park(*sh.ingress_wq, gate);
      continue;
    }
    while (!sh.ingress.empty()) {
      const InMsg& im = sh.ingress.front();
      sub[static_cast<std::size_t>(im.ch)].push_back(im.msg);
      sh.ingress.pop_front();
    }
    for (std::size_t c = 0; c < sub.size(); ++c) {
      if (sub[c].empty()) continue;
      co_await channels[c].ch->send_many(t, sub[c]);
      channels[c].fed += sub[c].size();
      sub[c].clear();
    }
  }
  co_await node::send_pills(sh.nd->stages.front(), t);
}

}  // namespace

ShardedResult run_sharded(const ScenarioSpec& raw, squeue::Backend backend,
                          std::uint64_t seed, const ShardedOptions& opts,
                          int scale) {
  node::require_runnable(raw, backend, &opts);
  const ScenarioSpec& spec = raw;  // sharded budget scales globally, below

  const std::uint64_t population =
      opts.population ? opts.population : spec.sharding.population;
  const std::uint64_t messages_total =
      (opts.messages ? opts.messages : spec.sharding.messages_total) *
      static_cast<std::uint64_t>(std::max(scale, 1));
  const int S = opts.shards;

  node::Run run(spec, backend, seed, opts.obs, S, /*sharded=*/true);
  ShardRouter ring(S);
  sim::ShardedSim ssim(spec.sharding.link_latency, opts.sim_threads);
  ssim.set_link_window(spec.sharding.link_window);

  // Producers and channels are dealt round-robin: global producer p lives
  // on shard p % S, global channel c on shard c % S.
  std::vector<int> np(static_cast<std::size_t>(S), 0);
  std::vector<int> nch(static_cast<std::size_t>(S), 0);
  for (int p = 0; p < spec.producers; ++p) ++np[static_cast<std::size_t>(p % S)];
  for (int c = 0; c < spec.consumers; ++c)
    ++nch[static_cast<std::size_t>(c % S)];

  std::vector<std::unique_ptr<Shard>> shards;
  for (int sh = 0; sh < S; ++sh) {
    auto s = std::make_unique<Shard>();
    // Each shard's hardware knobs (QoS quota carve, per-SQI splits) are
    // sized for the channels *it* hosts, exactly as a standalone node's
    // would be.
    ScenarioSpec local = spec;
    local.producers = std::max(np[static_cast<std::size_t>(sh)], 1);
    local.consumers = nch[static_cast<std::size_t>(sh)];
    s->m = std::make_unique<runtime::Machine>(
        machine_config_for(local, backend));
    s->f = std::make_unique<squeue::ChannelFactory>(*s->m, backend);
    s->nd = std::make_unique<node::Node>(run, sh, *s->m, *s->f, local);
    s->nd->add_stage("sh" + std::to_string(sh),
                     nch[static_cast<std::size_t>(sh)], 1);
    s->ingress_wq = std::make_unique<sim::WaitQueue>(s->m->eq());
    s->nd->producers_remaining = np[static_cast<std::size_t>(sh)];
    ssim.add_shard(s->m->eq());
    shards.push_back(std::move(s));
  }
  MeshRouting routing(population, ring, ssim, shards);
  run.routing = &routing;

  // --- observability hookup -------------------------------------------------
  run.register_series(&ssim);
  obs::TraceBuffer* barrier_tb = nullptr;
  // All buffers are created here, before any (possibly threaded) stepping:
  // each shard's queue writes only its own buffer while that shard steps,
  // and the barrier lane (pid = S) only between epochs.
  if (obs::Tracer* tr = run.trace_nodes()) {
    barrier_tb = &tr->buffer(static_cast<std::uint32_t>(S));
    ssim.set_trace(barrier_tb);
    tr->set_process_name(static_cast<std::uint32_t>(S), "barrier");
  }

  // Global message budget over global producer ids (largest remainder),
  // classes assigned by the same split as the classic engine — both are
  // shard-count-invariant, which is what makes delivered counts equal
  // across S.
  const std::vector<int> cls_of = node::producer_tenants(spec);
  const std::uint64_t per =
      messages_total / static_cast<std::uint64_t>(spec.producers);
  const std::uint64_t rem =
      messages_total % static_cast<std::uint64_t>(spec.producers);

  for (int sh = 0; sh < S; ++sh) {
    Shard& s = *shards[static_cast<std::size_t>(sh)];
    node::Node& nd = *s.nd;
    sim::spawn(relay(s, nd.next_thread()));
    for (int c = 0; c < static_cast<int>(nd.stages.front().channels.size());
         ++c)
      sim::spawn(node::worker(nd, nd.next_thread(), 0, c));
    for (int p = sh; p < spec.producers; p += S) {
      // On replay the per-gpid stream is the budget (an empty stream
      // returns immediately and decrements the barrier count).
      const std::uint64_t target =
          per + (static_cast<std::uint64_t>(p) < rem ? 1 : 0);
      if (target || run.trace)
        sim::spawn(node::producer(nd, nd.next_thread(),
                                  cls_of[static_cast<std::size_t>(p)], p,
                                  target));
      else
        --nd.producers_remaining;
    }
    sim::spawn(node::depth_sampler(nd));
  }

  // Barrier hook: once every producer mesh-wide has finished (their posts
  // were drained by this barrier's exchange), raise each shard's stop flag
  // one lookahead out — deliveries landing on that same tick were
  // scheduled first, so relays always drain payload before poisoning.
  // Until then, optionally rebalance the ring off persistently hot shards.
  bool stop_sent = false;
  std::uint64_t rebalanced = 0;
  std::uint64_t barriers = 0;
  std::vector<std::uint64_t> prev_lat_blocked(static_cast<std::size_t>(S), 0);
  auto hook = [&]() -> bool {
    const Tick now = shards.front()->m->now();
    // Link-fault table first (single-threaded here, shards tick-aligned):
    // each epoch then steps under one immutable table, which keeps fault
    // runs byte-identical between sequential and threaded stepping. Runs
    // before the stop check so partitions lift during the drain phase.
    if (run.plane) run.plane->apply_links(ssim, now, barrier_tb);
    // Timeline epoch: after the exchange every shard stands at the same
    // tick, so one sample captures a consistent mesh-wide cut. Sampling
    // reads counters only — it never schedules — so the run's (tick, seq)
    // stream is untouched.
    if (run.tl) run.tl->sample(now);
    // Supervisor control epoch: reads the cut just taken, re-carves the
    // per-class quotas via the epoch-boundary-safe knobs.
    if (run.sup) run.sup->on_epoch(*run.tl);
    if (stop_sent) return true;
    bool producers_done = true;
    for (const node::Node* nd : run.nodes)
      if (nd->producers_remaining > 0) {
        producers_done = false;
        break;
      }
    if (producers_done) {
      for (auto& s : shards) {
        Shard* p = s.get();
        p->m->eq().schedule_at(p->m->now() + spec.sharding.link_latency, [p] {
          p->stop = true;
          p->ingress_wq->wake_one();
        });
      }
      stop_sent = true;
      return true;
    }
    if (spec.sharding.rebalance && ++barriers % kRebalancePeriod == 0) {
      std::vector<std::uint64_t> load;
      load.reserve(shards.size());
      for (std::size_t si = 0; si < shards.size(); ++si) {
        const Shard& s = *shards[si];
        std::uint64_t l = s.ingress.size();
        for (const auto& sc : s.nd->stages.front().channels)
          l += sc.ch->depth();
        if (run.sup) {
          // SLO-aware pressure: a shard whose latency class spent this
          // window blocked is hotter than its queue depths alone say, so
          // fold the blocked-ticks growth into its load estimate (scaled
          // down to queue-depth units).
          std::uint64_t bl = 0;
          for (const auto& t : s.nd->tenants)
            if (t.qos == QosClass::kLatency) bl += t.blocked_ticks;
          l += (bl - prev_lat_blocked[si]) / 64;
          prev_lat_blocked[si] = bl;
        }
        load.push_back(l);
      }
      rebalanced += ring.rebalance(load, population);
    }
    return false;
  };

  ssim.run(hook);
  run.finish();

  ShardedResult r;
  r.engine = run.result(scale);
  r.engine.events = ssim.executed();
  r.shards = S;
  r.sim_threads = opts.sim_threads;
  r.epochs = ssim.stats().epochs;
  r.cross_shard = ssim.stats().messages;
  r.window_stalls = ssim.stats().window_stalls;
  r.rebalanced = rebalanced;
  for (auto& s : shards) {
    const ScenarioMetrics sm = s->nd->take_metrics(s->m->now());
    r.shard_digests.push_back(s->nd->digest);
    r.shard_delivered.push_back(sm.total_delivered());
    r.engine.metrics.merge(sm);
    r.engine.device_stats.merge(s->m->statset());
  }
  return r;
}

}  // namespace vl::traffic
