// The two open-loop traffic workloads.
//
// qos-fanin   preset qos-adversarial-bulk on VL64 with the QoS supervisor:
//             an 8:1 fan-in where a batched bulk flood fights a latency
//             tenant with an SLO — vlrd quota NACKs, QosSupervisor and
//             squeue send_many from the contended-consumer side.
// shard-mesh  preset shard-diurnal over 8 shards, 2 stepping threads: the
//             ShardedSim lookahead epochs, cross-shard links and the
//             ShardRouter ring, reaching squeue/vlrd from the
//             producer-spray side.
//
// Arrivals are paced by the preset and each message is stamped when it is
// generated, so producer back-pressure counts in its latency.
//
// A run pools kSeedsPerRun input seeds derived from --seed (seed * 4 + i):
// simulated metrics come from the merged histograms of those runs, which
// narrows their seed-to-seed spread without lengthening any one run
// (shard-mesh latency measures a backlog that grows with run length).
// Repeats cycle through the seeds; each repeat must reproduce the first
// run of its seed exactly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "bench.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "runtime/machine.hpp"
#include "squeue/factory.hpp"
#include "traffic/engine.hpp"
#include "traffic/scenario.hpp"
#include "traffic/shard_router.hpp"
#include "traffic/sharded_engine.hpp"

namespace perfbench {
namespace {

using vl::squeue::Backend;
using vl::traffic::EngineResult;
using vl::traffic::ScenarioSpec;

const ScenarioSpec& preset(const char* name) {
  const ScenarioSpec* s = vl::traffic::find_scenario(name);
  if (!s) {
    std::fprintf(stderr, "vlbench: scenario preset %s is missing\n", name);
    std::exit(1);
  }
  return *s;
}

constexpr int kSeedsPerRun = 4;

std::uint64_t sub_seed(std::uint64_t seed, int i) {
  return seed * kSeedsPerRun + static_cast<std::uint64_t>(i);
}

/// One run of a traffic workload on one seed.
struct Sample {
  EngineResult e;
  std::string fp;  ///< Everything simulated (see fingerprint()).
  double setup_s = 0, run_s = 0;
  AllocCount alloc;  ///< Allocations inside the run phase.
  std::vector<double> build_s;  ///< Per-machine build times.
  double router_s = 0;          ///< Ring build (shard-mesh only).
  std::uint64_t epochs = 0, window_stalls = 0, cross_shard = 0;
};

/// Builds and runs one sample: (seed, optional hooks) -> Sample.
using RunOnce =
    std::function<Sample(std::uint64_t, const vl::obs::RunHooks*)>;

/// Per-tenant CSV, event count and merged device counters.
std::string fingerprint(const EngineResult& e) {
  return e.csv() + "events=" + std::to_string(e.events) + "\n" +
         e.device_stats.to_string();
}

/// Per-tenant conservation, and the run's messages toward fail_frac.
void conservation(Report& r, const EngineResult& e, const std::string& what) {
  for (const auto& t : e.metrics.tenants)
    r.check(t.generated == t.delivered + t.dropped && t.sent == t.delivered,
            what + ": tenant " + t.tenant + " generated " +
                std::to_string(t.generated) + " != delivered " +
                std::to_string(t.delivered) + " + dropped " +
                std::to_string(t.dropped));
  r.messages(e.metrics.total_generated(), e.metrics.total_delivered());
}

struct Pooled {
  std::vector<Sample> per_seed;  ///< First run of each pooled seed.
  vl::traffic::ScenarioMetrics metrics;  ///< Merged over per_seed.
  // Host-side series over every repeat.
  std::vector<double> setup, rate, run_s, allocs_per_ev, bytes_per_msg,
      build_s, router_s;
  /// Fastest repeat of each seed: on a shared host the slow repeats
  /// measure other work on the machine, not the simulator.
  std::vector<double> best_run_s;

  /// Delivered messages and kernel events over the pooled seeds.
  double msgs() const {
    double n = 0;
    for (const Sample& s : per_seed)
      n += static_cast<double>(s.e.metrics.total_delivered());
    return n;
  }
  double events() const {
    double n = 0;
    for (const Sample& s : per_seed) n += static_cast<double>(s.e.events);
    return n;
  }
  double best_s() const {
    double t = 0;
    for (double b : best_run_s) t += b;
    return t;
  }
};

/// Repeat `once` over the pooled seeds until the measuring time is spent
/// (at least twice per seed), checking conservation and determinism.
Pooled measure(const Options& o, Report& r, const std::string& workload,
               const RunOnce& once) {
  Pooled p;
  p.per_seed.resize(kSeedsPerRun);
  p.best_run_s.assign(kSeedsPerRun, HUGE_VAL);
  const auto start = Clock::now();
  int rep = 0;
  do {
    const int i = rep % kSeedsPerRun;
    Sample x = once(sub_seed(o.seed, i), nullptr);
    const std::string what =
        workload + " seed " + std::to_string(sub_seed(o.seed, i));
    conservation(r, x.e, what);
    const double msgs = static_cast<double>(x.e.metrics.total_delivered());
    const double ev = static_cast<double>(x.e.events);
    p.setup.push_back(x.setup_s);
    p.run_s.push_back(x.run_s);
    p.rate.push_back(ratio(msgs, x.run_s));
    double& best = p.best_run_s[static_cast<std::size_t>(i)];
    best = std::min(best, x.run_s);
    p.allocs_per_ev.push_back(ratio(static_cast<double>(x.alloc.calls), ev));
    p.bytes_per_msg.push_back(ratio(static_cast<double>(x.alloc.bytes), msgs));
    p.build_s.insert(p.build_s.end(), x.build_s.begin(), x.build_s.end());
    p.router_s.push_back(x.router_s);
    if (rep < kSeedsPerRun) {
      p.metrics.merge(x.e.metrics);
      p.per_seed[static_cast<std::size_t>(i)] = std::move(x);
    } else {
      r.check(x.fp == p.per_seed[static_cast<std::size_t>(i)].fp,
              what + ": repeat " + std::to_string(rep) +
                  " differs from the first run of that seed");
    }
    ++rep;
  } while (rep < 2 * kSeedsPerRun || seconds_since(start) < o.seconds);

  r.set("setup_s", median(p.setup));
  r.set("msgs_per_host_s", ratio(p.msgs(), p.best_s()));
  r.set("peak_rss_mb", peak_rss_mb());
  double ticks = 0;
  for (const Sample& s : p.per_seed)
    ticks += static_cast<double>(s.e.metrics.ticks);
  r.set("sim_ticks", ticks / kSeedsPerRun);
  for (const vl::traffic::ClassAgg& c : p.metrics.by_class()) {
    if (c.cls != vl::QosClass::kLatency) continue;
    r.set("sim_lat_p50_ticks", static_cast<double>(c.agg.latency.percentile(50)));
    r.set("sim_lat_p999_ticks",
          static_cast<double>(c.agg.latency.percentile(99.9)));
    r.set("slo_attain_pct", c.slo_attained_pct());
    r.note(workload + ": " + std::to_string(c.agg.latency.count()) +
           " latency-class samples pooled over " +
           std::to_string(kSeedsPerRun) + " seeds");
  }
  r.note(rate_note(workload, r.get("msgs_per_host_s"), p.rate));
  return p;
}

/// Per-layer metrics every traffic workload shares: counts pooled over the
/// seeds' first runs, host figures over every repeat.
void traffic_layers(Report& r, const Pooled& p) {
  vl::StatSet dev;
  for (const Sample& s : p.per_seed) dev.merge(s.e.device_stats);
  const double msgs = p.msgs();
  r.set("sim.host_ns_per_event", 1e9 * ratio(p.best_s(), p.events()));
  r.set("sim.allocs_per_event", median(p.allocs_per_ev));
  r.set("sim.alloc_bytes_per_msg", median(p.bytes_per_msg));
  device_layers(r, dev, msgs, msgs);
  r.set("runtime.machine_build_s", median(p.build_s));
  for (const vl::traffic::ClassAgg& c : p.metrics.by_class())
    r.set(std::string("traffic.blocked_ticks_per_msg.") + vl::to_string(c.cls),
          ratio(static_cast<double>(c.agg.blocked_ticks),
                static_cast<double>(c.agg.generated)));
  r.set("traffic.drop_frac",
        ratio(static_cast<double>(p.metrics.total_dropped()),
              static_cast<double>(p.metrics.total_generated())));
}

/// Fold the traced run (first pooled seed) and check it simulated exactly
/// what the untraced run of that seed did.
void traced_layers(Report& r, const Pooled& p, const Sample& traced,
                   vl::obs::Tracer& tracer, std::uint32_t pids,
                   const std::string& workload) {
  const Sample& base = p.per_seed[0];
  r.check(traced.fp == base.fp, workload +
                                    " traced run differs from the untraced "
                                    "run (zero perturbation)");
  const auto f0 = Clock::now();
  SpanFold fold;
  for (std::uint32_t pid = 0; pid < pids; ++pid)
    fold.add(tracer.buffer(pid));
  r.set("obs.fold_s", seconds_since(f0));
  r.check(fold.mismatched() == 0, workload + " trace has unbalanced spans");
  span_layers(r, fold, static_cast<double>(base.e.metrics.total_delivered()));
  r.set("shard.epoch_ticks", fold.span("shard/epoch").dur.mean());
  // Host cost of tracing: the traced run against the untraced runs of the
  // same seed.
  std::vector<double> same_seed;
  for (std::size_t i = 0; i < p.run_s.size(); i += kSeedsPerRun)
    same_seed.push_back(p.run_s[i]);
  const double t = median(same_seed);
  r.set("obs.trace_overhead_frac", ratio(traced.run_s - t, t));
  r.note(workload + " traced run: span self time by (cat, name)\n" +
         fold.table());
}

}  // namespace

void run_qos_fanin(const Options& o, Report& r) {
  const ScenarioSpec& spec = preset("qos-adversarial-bulk");
  const int scale = o.smoke ? 1 : 16;
  const RunOnce once = [&](std::uint64_t seed, const vl::obs::RunHooks* hooks) {
    Sample x;
    const auto t0 = Clock::now();
    vl::runtime::Machine m(vl::traffic::machine_config_for(spec, Backend::kVl));
    vl::squeue::ChannelFactory f(m, Backend::kVl);
    vl::traffic::Engine eng(m, f);
    x.setup_s = seconds_since(t0);
    x.build_s = {x.setup_s};
    const AllocCount a0 = alloc_count();
    const auto t1 = Clock::now();
    x.e = eng.run(spec, seed, scale, hooks);
    x.run_s = seconds_since(t1);
    const AllocCount a1 = alloc_count();
    x.alloc = {a1.calls - a0.calls, a1.bytes - a0.bytes};
    x.fp = fingerprint(x.e);
    return x;
  };

  const Pooled p = measure(o, r, "qos-fanin", once);
  if (!o.trace) {
    paper_probe(r);
    return;
  }
  traffic_layers(r, p);
  // The supervisor samples its timeline every 2500 ticks when the caller
  // attaches none; the traced run attaches one at the same cadence so the
  // control loop acts at the same ticks.
  vl::obs::Tracer tracer;
  vl::obs::Timeline tl;
  vl::obs::RunHooks hooks;
  hooks.tracer = &tracer;
  hooks.timeline = &tl;
  hooks.sample_every = 2500;
  const Sample traced = once(sub_seed(o.seed, 0), &hooks);
  r.set("sup.quota_moves", tl.last("sup.decreases") + tl.last("sup.increases"));
  traced_layers(r, p, traced, tracer, 1, "qos-fanin");
}

void run_shard_mesh(const Options& o, Report& r) {
  const ScenarioSpec& spec = preset("shard-diurnal");
  constexpr int kShards = 8;
  vl::traffic::ShardedOptions opts;
  opts.shards = kShards;
  opts.sim_threads = 2;
  if (o.smoke) opts.messages = 4096;

  const RunOnce once = [&](std::uint64_t seed, const vl::obs::RunHooks* hooks) {
    Sample x;
    // run_sharded builds its mesh internally, so set-up is timed by
    // building the same pieces here: the tenant ring (with one lookup per
    // tenant of the population) and one machine + factory per shard,
    // carved for the producers and channels that shard hosts.
    const auto t0 = Clock::now();
    {
      vl::traffic::ShardRouter router(kShards);
      const auto census = router.census(spec.sharding.population);
      x.router_s = seconds_since(t0);
      std::uint64_t routed = 0;
      for (std::uint64_t n : census) routed += n;
      r.check(routed == spec.sharding.population,
              "shard-mesh ring routes " + std::to_string(routed) + " of " +
                  std::to_string(spec.sharding.population) + " tenants");
      std::vector<std::unique_ptr<vl::runtime::Machine>> machines;
      std::vector<std::unique_ptr<vl::squeue::ChannelFactory>> factories;
      for (int sh = 0; sh < kShards; ++sh) {
        const auto tb = Clock::now();
        ScenarioSpec node = spec;
        node.producers =
            std::max((spec.producers - sh + kShards - 1) / kShards, 1);
        node.consumers = (spec.consumers - sh + kShards - 1) / kShards;
        machines.push_back(std::make_unique<vl::runtime::Machine>(
            vl::traffic::machine_config_for(node, Backend::kVl)));
        factories.push_back(std::make_unique<vl::squeue::ChannelFactory>(
            *machines.back(), Backend::kVl));
        x.build_s.push_back(seconds_since(tb));
      }
      x.setup_s = seconds_since(t0);
    }

    vl::traffic::ShardedOptions run_opts = opts;
    run_opts.obs = hooks;
    const AllocCount a0 = alloc_count();
    const auto t1 = Clock::now();
    vl::traffic::ShardedResult s =
        vl::traffic::run_sharded(spec, Backend::kVl, seed, run_opts);
    x.run_s = seconds_since(t1);
    const AllocCount a1 = alloc_count();
    x.alloc = {a1.calls - a0.calls, a1.bytes - a0.bytes};
    x.epochs = s.epochs;
    x.window_stalls = s.window_stalls;
    x.cross_shard = s.cross_shard;
    x.fp = fingerprint(s.engine) + "epochs=" + std::to_string(s.epochs) +
           " cross=" + std::to_string(s.cross_shard) + " digests=";
    for (std::uint64_t d : s.shard_digests) x.fp += std::to_string(d) + " ";
    x.e = std::move(s.engine);
    return x;
  };

  const Pooled p = measure(o, r, "shard-mesh", once);

  // Threaded stepping must reproduce one sequential run exactly.
  opts.sim_threads = 1;
  const Sample seq = once(sub_seed(o.seed, 0), nullptr);
  opts.sim_threads = 2;
  r.check(seq.fp == p.per_seed[0].fp,
          "shard-mesh run differs between 2-thread and sequential stepping "
          "(shard_digests, CSV or counters)");
  conservation(r, seq.e, "shard-mesh sequential run");

  if (!o.trace) {
    paper_probe(r);
    return;
  }
  traffic_layers(r, p);
  double epochs = 0, stalls = 0, cross = 0;
  for (const Sample& s : p.per_seed) {
    epochs += static_cast<double>(s.epochs);
    stalls += static_cast<double>(s.window_stalls);
    cross += static_cast<double>(s.cross_shard);
  }
  r.set("shard.epochs", epochs / kSeedsPerRun);
  r.set("shard.window_stalls", stalls / kSeedsPerRun);
  r.set("shard.cross_shard_frac", ratio(cross, p.msgs()));
  r.set("traffic.router_build_s", median(p.router_s));

  vl::obs::Tracer tracer;
  vl::obs::RunHooks hooks;
  hooks.tracer = &tracer;
  const Sample traced = once(sub_seed(o.seed, 0), &hooks);
  traced_layers(r, p, traced, tracer, kShards + 1, "shard-mesh");
}

}  // namespace perfbench
