#include "traffic/engine.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/csv.hpp"
#include "replay/lifecycle.hpp"
#include "traffic/node.hpp"

namespace vl::traffic {

namespace {

using sim::Co;
using sim::SimThread;

/// Payload channels per stage: one per consumer when producers spray
/// (fan-out / mesh), else one shared channel.
std::uint32_t stage_channels(const ScenarioSpec& spec) {
  const bool spray =
      spec.topology == Topology::kFanOut || spec.topology == Topology::kMesh;
  return spray ? static_cast<std::uint32_t>(std::max(spec.consumers, 1)) : 1u;
}

/// The classic engine's routing: fan-out rotates over the node's
/// first-stage channels per message, mesh draws one uniformly; a replayed
/// record's dst is reduced onto the channel count.
class LocalRouting final : public node::Routing {
 public:
  LocalRouting(std::uint64_t nch, bool rotate)
      : Routing(0, 0x4000, /*fate_first=*/false), nch_(nch), rotate_(rotate) {}

  std::uint64_t draw(Xoshiro256& rng, std::uint64_t seq) const override {
    if (nch_ <= 1) return 0;
    return rotate_ ? seq : rng.below(nch_);
  }
  node::Dest place(std::uint64_t key) const override {
    const std::uint64_t c = key % nch_;
    return {0, static_cast<int>(c), c};
  }

 private:
  std::uint64_t nch_;
  bool rotate_;
};

/// Termination: once every producer finishes, one pill per first-stage
/// worker.
Co<void> coordinator(node::Node& nd, SimThread t) {
  co_await nd.producers_done;
  co_await node::send_pills(nd.stages.front(), t);
}

/// Drive the queue to completion, sampling the timeline at every
/// `period`-tick boundary. Replays the exact event sequence m.run() would:
/// events step one at a time, boundary samples happen *between* events
/// (all events <= the boundary have fired, the next lies beyond it), and
/// now_ is never fast-forwarded past the last event — run_until() would
/// inflate the run's measured ticks when the queue drains mid-window.
void run_sampled(runtime::Machine& m, obs::Timeline& tl, Tick period,
                 const std::function<void()>& on_epoch = {}) {
  if (period == 0) period = 1;
  sim::EventQueue& eq = m.eq();
  Tick next = m.now() + period;
  for (;;) {
    const auto nt = eq.peek_next_tick();
    if (!nt) break;
    while (*nt > next) {
      tl.sample(next);
      // Epoch-boundary control (QoS supervisor): runs between events, so
      // knob writes are safe and consume no (tick, seq) numbers.
      if (on_epoch) on_epoch();
      next += period;
    }
    eq.step();
  }
}

}  // namespace

EngineResult Engine::run(const ScenarioSpec& raw, std::uint64_t seed,
                         int scale, const obs::RunHooks* obs) {
  const squeue::Backend backend = f_.backend();
  node::require_runnable(raw, backend, nullptr);
  const ScenarioSpec spec = scaled(raw, scale);

  // Shared setup; the node arms the fault plane before any actor is
  // spawned, so its stall events hold fixed positions in the deterministic
  // (tick, seq) stream.
  node::Run run(spec, backend, seed, obs, 1, /*sharded=*/false);
  node::Node nd(run, 0, m_, f_, spec);

  std::unique_ptr<replay::LifecyclePlane> lplane;
  if (!spec.lifecycle.empty()) {
    std::vector<std::string> names;
    for (const auto& t : spec.tenants) names.push_back(t.name);
    lplane = std::make_unique<replay::LifecyclePlane>(spec.lifecycle, names);
    run.lp = lplane.get();
    // Quota re-carve at every churn boundary over the classes still
    // active, so hardware budgets track the live tenant mix. A supervisor
    // keeps its weights and does the re-carve itself — it stays the one
    // writer of the class knobs; without one the carve uses the base
    // weights (runtime::size_quotas — the same arithmetic as the static
    // carve, so nothing drifts).
    if (spec.qos && (backend == squeue::Backend::kVl ||
                     backend == squeue::Backend::kCaf)) {
      for (const Tick at : run.lp->churn_boundaries()) {
        m_.eq().schedule_at(at, [this, &run, &spec, backend, at] {
          bool present[kQosClasses] = {};
          bool any = false;
          for (std::size_t ti = 0; ti < spec.tenants.size(); ++ti) {
            if (!run.lp->tenant_active_at(static_cast<int>(ti), at)) continue;
            present[static_cast<std::size_t>(spec.tenants[ti].qos)] = true;
            any = true;
          }
          if (!any) return;  // everyone gone — leave the carve alone
          if (run.sup) {
            run.sup->set_active(present);
          } else {
            runtime::ChannelDemand d =
                channel_demand_for(spec, backend, m_.cfg());
            runtime::base_weights(d, present);
            runtime::apply_class_quotas(
                runtime::size_quotas(m_.cfg(), d),
                backend == squeue::Backend::kVl ? &m_.cluster() : nullptr,
                backend == squeue::Backend::kCaf ? &f_.caf_device() : nullptr);
          }
          run.lp->note_recarve();
        });
      }
    }
  }

  // --- wire the topology ----------------------------------------------------
  const int nchan = static_cast<int>(stage_channels(spec));
  const int nstages = spec.topology == Topology::kPipeline ? spec.stages : 1;
  for (int s = 0; s < nstages; ++s)
    nd.add_stage("s" + std::to_string(s), nchan,
                 nchan == 1 ? spec.consumers : 1);
  if (spec.closed_loop)
    for (int p = 0; p < spec.producers; ++p)
      nd.acks.push_back(f_.make("ack" + std::to_string(p), 0, 1));
  LocalRouting routing(static_cast<std::uint64_t>(nchan),
                       spec.topology == Topology::kFanOut);
  run.routing = &routing;

  // --- spawn the actors -----------------------------------------------------
  const std::vector<int> tenant_of = node::producer_tenants(spec);
  nd.producers_remaining = spec.producers;
  for (int pid = 0; pid < spec.producers; ++pid) {
    const int ti = tenant_of[static_cast<std::size_t>(pid)];
    sim::spawn(node::producer(
        nd, nd.next_thread(), ti, pid,
        spec.tenants[static_cast<std::size_t>(ti)].messages_per_producer));
  }
  for (std::size_t s = 0; s < nd.stages.size(); ++s)
    for (std::size_t c = 0; c < nd.stages[s].channels.size(); ++c)
      for (int w = 0; w < nd.stages[s].channels[c].workers; ++w)
        sim::spawn(node::worker(nd, nd.next_thread(), static_cast<int>(s),
                                static_cast<int>(c)));
  sim::spawn(coordinator(nd, nd.next_thread()));
  sim::spawn(node::depth_sampler(nd));

  // --- observability hookup (zero-perturbation: see run_sampled) ------------
  run.register_series(nullptr);
  run.trace_nodes();

  const Tick t0 = m_.now();
  const std::uint64_t ev0 = m_.eq().executed();
  if (run.tl) {
    // Control cadence when no external sampling is requested: 2500 ticks
    // keeps the supervisor's reaction time (a few epochs) well inside one
    // bulk burst dwell.
    const Tick period = obs ? obs->sample_every : Tick{2500};
    std::function<void()> on_epoch;
    if (run.sup) on_epoch = [&] { run.sup->on_epoch(*run.tl); };
    run_sampled(m_, *run.tl, period, on_epoch);
  } else {
    m_.run();
  }
  run.finish();

  // --- collect --------------------------------------------------------------
  EngineResult r = run.result(scale);
  r.events = m_.eq().executed() - ev0;
  r.metrics = nd.take_metrics(m_.now() - t0);
  r.device_stats = m_.statset();
  return r;
}

std::string EngineResult::csv() const {
  std::vector<std::string> header = {"scenario", "backend", "seed", "scale"};
  for (auto& col : ScenarioMetrics::csv_header()) header.push_back(col);
  CsvWriter w(header);
  for (auto& row : metrics.csv_rows()) {
    std::vector<std::string> full = {scenario, backend, std::to_string(seed),
                                     std::to_string(scale)};
    for (auto& cell : row) full.push_back(cell);
    w.row(std::move(full));
  }
  return w.str();
}

std::string EngineResult::table() const {
  return "scenario=" + scenario + " backend=" + backend +
         " seed=" + std::to_string(seed) + " scale=" + std::to_string(scale) +
         " ticks=" + std::to_string(metrics.ticks) + "\n" + metrics.table();
}

sim::SystemConfig machine_config_for(const ScenarioSpec& spec,
                                     squeue::Backend backend) {
  sim::SystemConfig cfg = squeue::config_for(backend);

  // Provision routing devices for wide fan-outs (paper § III-C2: address
  // bits J:N+1 spread virtual queues across VLRDs with zero shared state).
  // One device's prodBuf/consBuf/linkTab saturate around 4-8 heavily
  // consumed SQIs — beyond that, consumer arm-ahead registrations exceed
  // the consBuf and the fetch-retry traffic starves injection into a
  // livelock. Cap at 4 SQIs per device; queue descriptors round-robin
  // across devices, so consecutive channels land on distinct VLRDs.
  const std::uint32_t payload_sqis = stage_channels(spec);
  if (backend == squeue::Backend::kVl && payload_sqis > 4)
    cfg.vlrd.num_devices = std::min<std::uint32_t>((payload_sqis + 3) / 4,
                                                   1u << vlrd::kVlrdIdBits);

  // Summarize the channel graph into a ChannelDemand and let the one
  // sizing policy (runtime::size_quotas — shared with workloads::run and
  // the online QoS supervisor) carve the budgets. With the base integral
  // weights this reproduces the historic hand-carved tables bit-for-bit.
  const runtime::ChannelDemand d = channel_demand_for(spec, backend, cfg);
  const runtime::QuotaPlan plan = runtime::size_quotas(cfg, d);
  if (backend == squeue::Backend::kVl && d.relay_channels > 0)
    cfg.vlrd.per_sqi_quota = plan.per_sqi_quota;
  if (d.qos) {
    for (std::size_t c = 0; c < kQosClasses; ++c) {
      if (backend == squeue::Backend::kVl)
        cfg.vlrd.class_quota[c] = plan.vl_class_quota[c];
      else
        cfg.caf.class_credits[c] = plan.caf_class_credits[c];
    }
  }
  return cfg;
}

runtime::ChannelDemand channel_demand_for(const ScenarioSpec& spec,
                                          squeue::Backend backend,
                                          const sim::SystemConfig& cfg) {
  runtime::ChannelDemand d;

  // Relay cycles (pipeline stages, closed-loop acks) share one prodBuf
  // while consuming and producing at once — the § V starvation hazard. The
  // per-SQI quota keeps total demand below capacity so chains drain.
  const bool has_relay_cycle =
      spec.topology == Topology::kPipeline || spec.closed_loop;
  const auto stages = static_cast<std::uint32_t>(std::max(spec.stages, 1));
  if (backend == squeue::Backend::kVl && has_relay_cycle) {
    std::uint32_t channels = spec.topology == Topology::kPipeline
                                 ? stages
                                 : stage_channels(spec);
    if (spec.closed_loop)
      channels += static_cast<std::uint32_t>(std::max(spec.producers, 0));
    d.relay_channels = channels;
  }

  // QoS enforcement: partition the hardware enqueue budget (CAF per-queue
  // credits, VLRD prodBuf share) across the service classes the scenario
  // actually uses, proportionally to qos_weight(). The latency class ends
  // up with 4x the bulk class's share, so a bulk flood is NACKed (and its
  // producers parked) long before it can fill the queue ahead of latency
  // traffic. Classes no tenant uses get a token quota of 1 so stray
  // untagged messages (termination pills) still flow.
  //
  // CAF caps are per device queue, so the weighted split applies as-is
  // (payload_sqis stays 1). VLRD quotas are enforced per SQI but drawn
  // from the one shared prodBuf, so the split is further divided by the
  // number of payload channels (SQIs) the topology opens *per device* —
  // otherwise a class could hold quota x SQIs entries and crowd the shared
  // buffer anyway. (Closed-loop ack channels are not counted: their
  // occupancy is window-bounded and tiny next to payload flows.)
  if (spec.qos &&
      (backend == squeue::Backend::kVl || backend == squeue::Backend::kCaf)) {
    d.qos = true;
    bool present[kQosClasses] = {};
    for (const auto& t : spec.tenants)
      present[static_cast<std::size_t>(t.qos)] = true;
    runtime::base_weights(d, present);
    if (backend == squeue::Backend::kVl)
      d.payload_sqis = spec.topology == Topology::kPipeline
                           ? stages
                           : (stage_channels(spec) + cfg.vlrd.num_devices - 1) /
                                 cfg.vlrd.num_devices;
  }
  return d;
}

}  // namespace vl::traffic
