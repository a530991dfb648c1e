#pragma once
// One modelled node's actor set, shared by both traffic drivers.
//
// The paper's § III-C2 partitions virtual queues across VLRDs with zero
// shared state, so a sharded mesh is just S copies of one node. The
// classic engine (engine.cpp) runs a single Node on the caller's machine;
// the sharded mesh (sharded_engine.cpp) runs one Node per shard under
// sim::ShardedSim. Everything a node does lives here: its channels and
// per-tenant metrics, the producer / worker / depth-sampler coroutines,
// and the timeline series folded over any set of nodes. A driver keeps
// only what is genuinely its own: thread placement, termination, and — on
// the mesh — the inter-shard link, relay, and barrier hook.
//
// Message framing: word 0 of every payload message carries
//   [63:56] tenant id   [55:48] producer id & 0xff   [47:0] send tick
// validate() bounds tenants to 255 (0xff marks a pill) and closed-loop
// producers to 256 (acks route back on the masked id).
//
// Internal to src/traffic: the public entry points are cell.hpp,
// engine.hpp and sharded_engine.hpp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/plane.hpp"
#include "obs/hooks.hpp"
#include "replay/lifecycle.hpp"
#include "replay/trace.hpp"
#include "runtime/machine.hpp"
#include "runtime/qos_supervisor.hpp"
#include "sim/task.hpp"
#include "squeue/factory.hpp"
#include "traffic/engine.hpp"
#include "traffic/metrics.hpp"
#include "traffic/scenario.hpp"

namespace vl::sim {
class ShardedSim;
}

namespace vl::traffic {
struct ShardedOptions;
}

namespace vl::traffic::node {

constexpr std::uint64_t kTickMask = (std::uint64_t{1} << 48) - 1;
constexpr std::uint64_t kPillTenant = 0xff;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Word 0 of a payload message (see the framing note above).
std::uint64_t stamp(int tenant, int pid, Tick now);

/// Derive an independent RNG stream for one actor of the run. Xoshiro
/// seeding splitmixes the value, so consecutive salts give uncorrelated
/// streams.
std::uint64_t split_seed(std::uint64_t seed, std::uint64_t salt);

/// Termination pill. The stamp bits [47:0] — meaningless for a pill —
/// carry the channel's exact payload count, so a sole worker can drain to
/// the count instead of trusting arrival order: VL's § III-B
/// injection-retry recovery can land a straggler *after* a younger line
/// (the registration recycle maps returned data to the next armed ring
/// line), so "pill seen" does not imply "channel empty".
squeue::Msg make_pill(std::uint64_t count);

/// Payload width on `backend`. CAF channels carry fixed single-word frames
/// (multi-word register sequences interleave under M:N sharing), so CAF
/// runs stamp-only; a wider trace replayed onto CAF clamps the same way.
std::uint8_t payload_words(squeue::Backend backend, std::uint8_t words);

/// FNV-1a fold of one 64-bit value — the per-node delivery digest.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v);

/// Throw std::invalid_argument naming the first validate() failure, else
/// the reason the engine `mesh` selects cannot run the spec (unsupported()
/// in traffic/cell.hpp: null is the classic engine).
void require_runnable(const ScenarioSpec& spec, squeue::Backend backend,
                      const ShardedOptions* mesh);

/// Tenant index of every producer id: ids are dealt to tenants in order,
/// tenant_producer_split(spec) apiece.
std::vector<int> producer_tenants(const ScenarioSpec& spec);

struct StageChannel {
  std::unique_ptr<squeue::Channel> ch;
  int workers = 1;
  std::string label;
  /// Payload messages fed into this channel (producer flushes, upstream
  /// relays, link injections). Final by the time its termination pill is
  /// built, so the pill can carry the exact drain target for the
  /// channel's sole worker.
  std::uint64_t fed = 0;
};

struct Stage {
  std::vector<StageChannel> channels;
  int workers_remaining = 0;
};

/// Where one message goes: channel `ch` of node `shard`'s first stage.
/// `key` is the destination the recorder logs — the channel index on the
/// classic engine, the logical tenant id on the mesh.
struct Dest {
  int shard = 0;
  int ch = 0;
  std::uint64_t key = 0;
};

/// A driver's routing policy: the one step where the two drivers'
/// producers differ. Salts and draw order are fixed per driver, so a
/// (spec, seed) pair always replays the same RNG streams.
class Routing {
 public:
  Routing(std::uint64_t arrival_salt, std::uint64_t route_salt,
          bool fate_first)
      : arrival_salt(arrival_salt),
        route_salt(route_salt),
        fate_first(fate_first) {}
  virtual ~Routing() = default;

  /// Destination key of a producer's `seq`-th live message.
  virtual std::uint64_t draw(Xoshiro256& rng, std::uint64_t seq) const = 0;
  /// Resolve a key — a live draw or a recorded trace dst.
  virtual Dest place(std::uint64_t key) const = 0;
  /// Remote hop (mesh only): may node `from` post to node `to` now, and
  /// hand one message over the link to `d.shard`.
  virtual bool can_post(int /*from*/, int /*to*/) { return true; }
  virtual void post(int /*from*/, const Dest& /*d*/,
                    const squeue::Msg& /*msg*/) {}

  /// Producer p's arrival stream is split_seed(seed, arrival_salt + p),
  /// its routing stream split_seed(seed, route_salt + p).
  const std::uint64_t arrival_salt;
  const std::uint64_t route_salt;
  /// Decide a message's channel-fault fate before drawing its destination,
  /// and let a dropped message still take its slot in the lap (the mesh's
  /// order); otherwise draw first and count only kept messages.
  const bool fate_first;
};

class Node;

/// Run-wide state every node of one run shares, and the one setup path
/// both drivers take: recorder begin, frame width, the fault plane, and the
/// QoS supervisor with its timeline.
class Run {
 public:
  Run(const ScenarioSpec& spec, squeue::Backend backend, std::uint64_t seed,
      const obs::RunHooks* obs, int shards, bool sharded);
  Run(const Run&) = delete;  // nodes and timeline closures hold its address
  Run& operator=(const Run&) = delete;

  const ScenarioSpec& spec;
  const squeue::Backend backend;
  const std::uint64_t seed;
  const obs::RunHooks* const obs;
  const bool sharded;
  Routing* routing = nullptr;  ///< Set by the driver before spawning.
  std::vector<Node*> nodes;    ///< Every node, in id order (Node registers).

  /// Fault plane (null on clean runs). `chan_faults` pre-gates the
  /// per-message loss/dup hook: the spec has loss/dup events AND the
  /// backend is a software one (hardware backends model reliable
  /// interconnects).
  std::unique_ptr<fault::FaultPlane> plane;
  bool chan_faults = false;
  /// Send-boundary trace tap (null unless recording). Per-pid streams are
  /// preallocated by begin(), so threaded shards never race on them.
  replay::TraceRecorder* rec = nullptr;
  /// Replay source: producers re-offer this trace's per-pid record streams
  /// instead of their tenants' arrival processes. Null on live runs.
  const replay::Trace* trace = nullptr;
  /// Lifecycle plane (classic driver only; null on static runs).
  replay::LifecyclePlane* lp = nullptr;
  /// Closed-loop QoS supervisor (spec.supervisor on a hardware backend).
  std::unique_ptr<runtime::QosSupervisor> sup;
  /// The caller's timeline, or a private one a supervised run samples
  /// into; null when nothing samples.
  obs::Timeline* tl = nullptr;
  std::uint8_t frame = 1;  ///< Channel frame width for every payload channel.

  /// Register the timeline series over every node: per-class cumulative
  /// traffic counters (aggregated the way ScenarioMetrics::by_class() does,
  /// so the final epoch equals the end-of-run report), the kernel/device
  /// counters the QoS supervisor watches, mesh link signals when `ssim` is
  /// given, then the fault plane's and the supervisor's own series.
  /// Closures read node state in place; finish() detaches them.
  void register_series(const sim::ShardedSim* ssim);
  /// Point each node's event queue at its own tracer buffer (pid = node
  /// id). Returns the tracer, or null when the run is untraced.
  obs::Tracer* trace_nodes() const;
  /// A result carrying this run's identity (scenario, backend, seed,
  /// `scale`); the driver fills in events and metrics.
  EngineResult result(int scale) const;
  /// Final cumulative timeline epoch (its class series equal the merged
  /// ScenarioMetrics), detach the series, and unhook the tracer — call
  /// before the nodes' metrics move out.
  void finish();

 private:
  obs::Timeline local_tl_;
};

/// One machine's channels, per-tenant metrics, and depth series.
class Node {
 public:
  /// Arms the fault plane on `m` (its stall events then hold fixed
  /// positions in the (tick, seq) stream) and attaches the supervisor with
  /// `local`'s channel demand — the spec as this node alone hosts it.
  Node(Run& run, int id, runtime::Machine& m, squeue::ChannelFactory& f,
       const ScenarioSpec& local);
  Node(const Node&) = delete;  // Run and the actors hold its address
  Node& operator=(const Node&) = delete;

  /// Append a stage of `nchan` channels labelled `prefix`c<i>, each
  /// drained by `workers` workers.
  void add_stage(const std::string& prefix, int nchan, int workers);
  /// Move this node's metrics out, measured over `ticks`.
  ScenarioMetrics take_metrics(Tick ticks);
  /// Threads are dealt round-robin over the machine's cores in spawn order.
  sim::SimThread next_thread();

  Run& run;
  const int id;
  runtime::Machine& m;
  squeue::ChannelFactory& f;
  std::vector<Stage> stages;
  std::vector<std::unique_ptr<squeue::Channel>> acks;  ///< Closed loop.
  std::vector<TenantMetrics> tenants;
  std::vector<DepthSeries> depths;  ///< Parallel to flattened channels.

  int producers_remaining = 0;
  sim::AsyncOp<int> producers_done;  ///< Completed by the last producer.
  bool all_done = false;             ///< Final stage drained; sampler unwinds.
  std::uint64_t digest = kFnvBasis;  ///< (tick, stamp) fold per delivery.
  std::uint64_t cross_in = 0;        ///< Messages that arrived over links.

 private:
  CoreId core_ = 0;
};

/// Producer `pid` of `tenant`: paces `target` messages on the tenant's
/// arrival process — or, on replay, re-offers its recorded stream at the
/// absolute recorded ticks with class, width, and destination taken from
/// the records (the trace is the post-shed stream, so shedding, faults,
/// and produce_compute are skipped). Messages route individually and
/// accumulate into per-channel sub-batches flushed at lap end in ascending
/// channel order, one send_many per channel touched; remote messages post
/// onto their link as they are generated.
sim::Co<void> producer(Node& nd, sim::SimThread t, int tenant, int pid,
                       std::uint64_t target);

/// One worker of channel `chan` in stage `stage`: final-stage delivery
/// accounting (latency, digest, closed-loop acks), pipeline relay,
/// SQI reconfig, and pill-driven termination.
sim::Co<void> worker(Node& nd, sim::SimThread t, int stage, int chan);

/// Poison every worker of `st`: one pill per worker, carrying the
/// channel's payload count when it has a sole worker.
sim::Co<void> send_pills(Stage& st, sim::SimThread t);

/// Samples every channel's depth each spec.depth_sample_period ticks until
/// the node's final stage has drained.
sim::Co<void> depth_sampler(Node& nd);

}  // namespace vl::traffic::node
