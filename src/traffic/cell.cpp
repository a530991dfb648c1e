#include "traffic/cell.hpp"

#include <utility>

#include "replay/trace.hpp"
#include "traffic/engine.hpp"

namespace vl::traffic {

namespace {

using squeue::Backend;

std::string backend_name(Backend b) {
  return "backend '" + std::string(squeue::to_string(b)) + "'";
}

}  // namespace

Cell::Cell(ScenarioSpec spec, Backend backend, std::uint64_t seed, int scale,
           const obs::RunHooks* hooks)
    : spec(std::move(spec)), backend(backend), seed(seed), scale(scale) {
  shards = 0;
  obs = hooks;
}

std::string unsupported(const ScenarioSpec& spec, Backend backend,
                        const ShardedOptions* mesh) {
  if (const replay::Trace* t = spec.replay) {
    if (t->sharded != (mesh != nullptr))
      return "replay: trace '" + t->scenario + "' was recorded by the " +
             (t->sharded ? "sharded engine; replay it through traffic::run "
                           "with shards > 0"
                         : "classic engine; replay it through traffic::run "
                           "with shards = 0");
    if (t->producers != static_cast<std::uint32_t>(spec.producers) ||
        t->tenants != spec.tenants.size())
      return "replay: trace shape (producers=" + std::to_string(t->producers) +
             ", tenants=" + std::to_string(t->tenants) +
             ") does not match scenario '" + spec.name +
             "' (producers=" + std::to_string(spec.producers) +
             ", tenants=" + std::to_string(spec.tenants.size()) + ")";
  }
  if (!mesh) {
    if (spec.lifecycle.has_reconfig() && backend != Backend::kVl &&
        backend != Backend::kVlIdeal)
      return "reconfig@ is SQI re-registration: only the VL backends (vl, "
             "vlideal) have a registration to drop, " +
             backend_name(backend) + " has none";
    return {};
  }
  if (!spec.lifecycle.empty())
    return "lifecycle events (churn/reconfig) run on the classic engine only";
  if (mesh->shards < 1) return "shards must be >= 1";
  if (!(mesh->population ? mesh->population : spec.sharding.population))
    return "scenario '" + spec.name + "' has no sharding population";
  if (!(mesh->messages ? mesh->messages : spec.sharding.messages_total))
    return "scenario '" + spec.name + "' has no sharding message budget";
  if (spec.topology != Topology::kFanOut && spec.topology != Topology::kMesh)
    return "sharded runs need a fan-out/mesh topology (channel per consumer)";
  if (spec.closed_loop) return "sharded runs are open-loop only";
  if (spec.consumers < mesh->shards)
    return "need at least one consumer per shard (consumers >= shards)";
  for (const auto& t : spec.tenants)
    if (t.drop_depth > 0)
      return "tenant '" + t.name +
             "': drop_depth shedding runs on the classic engine only";
  return {};
}

std::string Cell::check() const {
  const bool sharded = shards != 0;
  std::string why = unsupported(spec, backend, sharded ? this : nullptr);
  if (!why.empty()) return why;
  if (!sharded && (population || messages || sim_threads > 1))
    return "population/message overrides and sim_threads > 1 drive the "
           "sharded engine only (shards > 0)";
  const bool chan_faults = spec.faults.has(fault::FaultKind::kChanLoss) ||
                           spec.faults.has(fault::FaultKind::kChanDup);
  if (chan_faults && backend != Backend::kBlfq && backend != Backend::kZmq)
    return "channel loss/dup faults mutate the software rings only (blfq, "
           "zmq); " + backend_name(backend) + " gates them off";
  if (chan_faults && spec.replay)
    return "a replayed trace is the post-shed stream: loss/dup are already "
           "reflected in its records";
  if (obs && obs->recorder && spec.replay)
    return "recording a replayed run would re-record its own input; record "
           "or replay, not both";
  return {};
}

ShardedResult run(const Cell& c) {
  ScenarioSpec spec = c.spec;
  if (c.batch)
    for (auto& t : spec.tenants) t.batch = c.batch;
  if (c.shards != 0) return run_sharded(spec, c.backend, c.seed, c, c.scale);
  runtime::Machine m(machine_config_for(spec, c.backend));
  squeue::ChannelFactory f(m, c.backend);
  ShardedResult r;
  r.shards = 0;
  r.engine = Engine(m, f).run(spec, c.seed, c.scale, c.obs);
  return r;
}

}  // namespace vl::traffic
