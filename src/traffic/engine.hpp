#pragma once
// The classic traffic engine: instantiates a ScenarioSpec over a
// ChannelFactory on one machine, drives open- or closed-loop load, and
// collects per-tenant latency + queue-depth metrics.
//
// The engine is a thin driver over the node actor set in traffic/node.hpp
// (the sharded mesh, traffic/sharded_engine.hpp, drives S copies of the
// same node): it opens the node's stages, places producer / worker /
// coordinator threads, schedules lifecycle quota re-carves, and steps the
// machine, sampling the timeline at sample_every-tick boundaries.
//
// Message framing: word 0 of every payload message carries
//   [63:56] tenant id   [55:48] producer id & 0xff   [47:0] send tick
// so any final-stage consumer can attribute latency to a tenant and route
// closed-loop acks back to the producer, with no out-of-band lookup state.
// validate() therefore caps a spec at 255 tenants (0xff marks a pill) and a
// closed loop at 256 producers. Remaining words are deterministic filler to
// the tenant's msg_words.
//
// Termination uses pilot pills: when the last producer finishes, a
// coordinator thread enqueues one poison pill per first-stage consumer;
// a pipeline stage's last-to-finish worker forwards pills to the next
// stage. Since every backend's queue object delivers accepted messages in
// arrival order, pills enqueued strictly after all payload sends complete
// are delivered last, so no payload is stranded behind a stopped worker.

#include <cstdint>
#include <string>

#include "obs/hooks.hpp"
#include "runtime/machine.hpp"
#include "runtime/qos_supervisor.hpp"
#include "squeue/factory.hpp"
#include "traffic/metrics.hpp"
#include "traffic/scenario.hpp"

namespace vl::traffic {

struct EngineResult {
  std::string scenario;
  std::string backend;
  std::uint64_t seed = 0;
  int scale = 1;
  std::uint64_t events = 0;  ///< Kernel events executed during the run.
  ScenarioMetrics metrics;
  /// End-of-run snapshot of the machine's telemetry tables (Machine::obs());
  /// per-shard snapshots merged on sharded runs. Diff/merge/to_string via
  /// the StatSet view.
  StatSet device_stats;

  /// Per-tenant CSV (header + rows). Fully deterministic for a fixed
  /// (scenario, backend, seed, scale): byte-identical across runs.
  std::string csv() const;
  /// Aligned text tables for terminal consumption.
  std::string table() const;
};

class Engine {
 public:
  Engine(runtime::Machine& m, squeue::ChannelFactory& f) : m_(m), f_(f) {}

  /// Run `spec` (already scaled) to completion on this machine. The
  /// machine must be freshly constructed — the engine assumes an empty
  /// event queue and takes over thread placement.
  ///
  /// `obs` (optional) attaches the observability layer: a Timeline gets
  /// per-class delivered/p99/SLO/blocked series plus device counters
  /// sampled every obs->sample_every ticks, a Tracer gets the machine's
  /// event stream (pid 0). Observation is external to the event loop — it
  /// schedules nothing and consumes no (tick, seq) numbers — so results
  /// are byte-identical with and without it.
  EngineResult run(const ScenarioSpec& spec, std::uint64_t seed,
                   int scale = 1, const obs::RunHooks* obs = nullptr);

 private:
  runtime::Machine& m_;
  squeue::ChannelFactory& f_;
};

/// System configuration for running `spec` on `backend`. Mostly
/// config_for(backend), but scenarios whose threads consume one channel
/// while producing another (pipeline relays, closed-loop acks) get a
/// per-SQI prodBuf quota on the VL backend: with the buffer fully shared,
/// upstream stages can occupy every slot and deadlock the relays, the § V
/// starvation hazard CAF answers with credit partitioning. The quota keeps
/// total per-SQI demand below capacity so chains always drain.
sim::SystemConfig machine_config_for(const ScenarioSpec& spec,
                                     squeue::Backend backend);

/// Summarize `spec`'s channel graph into the quota-sizing inputs
/// (runtime::size_quotas). `cfg` must already carry the provisioned device
/// count (machine_config_for computes it before calling this); the QoS
/// supervisor reuses the same demand to re-carve quotas online, so static
/// and dynamic sizing can never drift apart.
runtime::ChannelDemand channel_demand_for(const ScenarioSpec& spec,
                                          squeue::Backend backend,
                                          const sim::SystemConfig& cfg);

}  // namespace vl::traffic
