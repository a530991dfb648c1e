#include "replay/warm_restart.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "replay/wire.hpp"
#include "runtime/machine.hpp"
#include "runtime/vl_queue.hpp"
#include "sim/task.hpp"
#include "squeue/caf.hpp"

namespace vl::replay {
namespace {

constexpr char kMagic[4] = {'V', 'L', 'S', 'S'};
constexpr std::uint32_t kVersion = 1;

// --- drill shape ------------------------------------------------------------

constexpr int kChannels = 2;
constexpr int kProducersPerChannel = 2;
constexpr int kPerProducer = 12;  ///< 48 messages total, under the 64-slot
                                  ///< prodBuf / 64-credit CAF budget.
constexpr std::size_t kDrainBefore = 8;  ///< Per channel, pre-snapshot.

/// Bijective 64-bit mix (splitmix64 finalizer): distinct message ids map
/// to distinct stamp values, so the conservation multiset catches any
/// loss/duplication and the digest tracks content, not just counts.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t stamp(std::uint64_t seed, int channel, int producer, int seq) {
  // Hash the seed before combining: XOR-ing a raw small seed with the
  // small seq would only permute the stamp multiset across seeds, and the
  // order-independent digest would not see the difference.
  return mix64(mix64(seed) ^ (static_cast<std::uint64_t>(channel) << 48) ^
               (static_cast<std::uint64_t>(producer) << 40) ^
               static_cast<std::uint64_t>(seq));
}

/// Order-independent delivery digest: FNV-1a over the sorted multiset.
std::uint64_t digest_of(std::vector<std::uint64_t> vals) {
  std::sort(vals.begin(), vals.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t v : vals)
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

// Actor coroutines. Free functions (not capturing lambdas): a coroutine
// lambda's captures die with the lambda object, but these frames hold
// their references as parameters, alive until the drill's vectors go out
// of scope after Machine::run() drains.

sim::Co<void> produce_vl(runtime::Producer& p,
                         const std::vector<std::uint64_t>& vals) {
  for (const std::uint64_t v : vals) co_await p.enqueue1(v);
}

sim::Co<void> consume_vl(runtime::Consumer& c, std::size_t n,
                         std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(co_await c.dequeue1());
}

/// Quiesce: drop the demand lease, then sweep every frame that already
/// landed in the endpoint ring (PR 6's out-of-order landing recovery).
/// Afterwards everything undelivered is device-resident.
sim::Co<void> quiesce_vl(runtime::Consumer& c,
                         std::vector<std::uint64_t>& out) {
  c.release_ahead();
  while (true) {
    auto f = co_await c.sweep_landed();
    if (!f) break;
    for (const std::uint64_t v : f->elems) out.push_back(v);
  }
}

sim::Co<void> produce_caf(squeue::Channel& ch, sim::SimThread t,
                          const std::vector<std::uint64_t>& vals) {
  for (const std::uint64_t v : vals) co_await ch.send1(t, v);
}

sim::Co<void> consume_caf(squeue::Channel& ch, sim::SimThread t, std::size_t n,
                          std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(co_await ch.recv1(t));
}

void finish_report(WarmRestartReport& rep,
                   const std::vector<std::uint64_t>& produced,
                   const std::vector<std::uint64_t>& before,
                   const std::vector<std::uint64_t>& after) {
  rep.produced = produced.size();
  rep.delivered_before = before.size();
  rep.delivered_after = after.size();

  std::map<std::uint64_t, long> balance;
  for (const std::uint64_t v : produced) ++balance[v];
  std::vector<std::uint64_t> delivered = before;
  delivered.insert(delivered.end(), after.begin(), after.end());
  for (const std::uint64_t v : delivered) --balance[v];
  for (const auto& [v, n] : balance) {
    if (n > 0) rep.lost += static_cast<std::uint64_t>(n);
    if (n < 0) rep.duplicated += static_cast<std::uint64_t>(-n);
  }
  rep.digest = digest_of(std::move(delivered));
}

// --- VL drill ---------------------------------------------------------------

WarmRestartReport vl_drill(squeue::Backend b, std::uint64_t seed) {
  const sim::SystemConfig cfg = squeue::config_for(b);
  WarmRestartReport rep;
  rep.backend = squeue::to_string(b);

  std::vector<std::uint64_t> produced;
  std::vector<std::uint64_t> before;  // delivered pre-snapshot (+ sweep)
  std::vector<std::uint64_t> after;   // delivered post-restore
  Snapshot snap;
  snap.backend = rep.backend;

  {
    runtime::Machine mA(cfg);
    runtime::VlQueueLib lib(mA);
    std::vector<runtime::QueueHandle> h;
    for (int c = 0; c < kChannels; ++c)
      h.push_back(lib.open("wr" + std::to_string(c)));

    std::vector<runtime::Producer> prods;
    std::vector<std::vector<std::uint64_t>> vals;
    prods.reserve(kChannels * kProducersPerChannel);
    vals.reserve(kChannels * kProducersPerChannel);
    const auto ncores = static_cast<CoreId>(mA.num_cores());
    for (int c = 0; c < kChannels; ++c)
      for (int p = 0; p < kProducersPerChannel; ++p) {
        prods.push_back(lib.make_producer(
            h[c],
            mA.thread_on((c * kProducersPerChannel + p) % ncores)));
        std::vector<std::uint64_t> v;
        for (int i = 0; i < kPerProducer; ++i) {
          v.push_back(stamp(seed, c, p, i));
          produced.push_back(v.back());
        }
        vals.push_back(std::move(v));
      }
    std::vector<runtime::Consumer> cons;
    cons.reserve(kChannels);
    for (int c = 0; c < kChannels; ++c)
      cons.push_back(lib.make_consumer(
          h[c],
          mA.thread_on((kChannels * kProducersPerChannel + c) % ncores)));

    for (std::size_t i = 0; i < prods.size(); ++i)
      sim::spawn(produce_vl(prods[i], vals[i]));
    for (auto& c : cons) sim::spawn(consume_vl(c, kDrainBefore, before));
    mA.run();

    for (auto& c : cons) sim::spawn(quiesce_vl(c, before));
    mA.run();

    // Every undelivered message is now device-resident. Snapshot data +
    // the quota knobs (config-then-data on restore).
    for (int c = 0; c < kChannels; ++c) {
      const auto resident =
          mA.cluster().device(h[c].vlrd_id).snapshot_resident();
      Snapshot::QueueState qs;
      qs.name = "wr" + std::to_string(c);
      qs.vlrd_id = h[c].vlrd_id;
      qs.sqi = h[c].sqi;
      qs.lines = resident[h[c].sqi];
      snap.queues.push_back(std::move(qs));
    }
    const sim::VlrdConfig& vc = mA.cluster().cfg();
    for (std::size_t i = 0; i < kQosClasses; ++i)
      snap.vl_class_quota[i] = vc.class_quota[i];
    snap.vl_per_sqi_quota = vc.per_sqi_quota;
  }  // Machine A fully torn down here.

  const std::string bytes = snap.serialize();
  rep.snapshot_bytes = bytes.size();
  const Snapshot restored = Snapshot::deserialize(bytes);
  if (!(restored == snap))
    throw std::runtime_error("warm-restart: snapshot serialize round trip");
  for (const auto& qs : restored.queues) rep.resident += qs.lines.size();

  {
    runtime::Machine mB(cfg);
    runtime::VlQueueLib lib(mB);
    std::vector<runtime::QueueHandle> h;
    for (const auto& qs : restored.queues) {
      h.push_back(lib.open(qs.name));
      // Creation order reproduces the (device, SQI) map; anything else
      // means the rebuild diverged from the snapshot's world.
      if (h.back().vlrd_id != qs.vlrd_id || h.back().sqi != qs.sqi)
        throw std::runtime_error(
            "warm-restart: rebuilt queue map diverged from snapshot");
    }

    for (std::size_t i = 0; i < kQosClasses; ++i)
      mB.cluster().set_class_quota(static_cast<QosClass>(i),
                                   restored.vl_class_quota[i]);
    mB.cluster().set_per_sqi_quota(restored.vl_per_sqi_quota);

    // Replay the resident lines through the normal device port in their
    // snapshot (delivery) order. The buffer is empty and the resident set
    // respected the quotas before the restart, so every push must land.
    for (const auto& qs : restored.queues)
      for (const mem::Line& line : qs.lines)
        if (!mB.cluster().device(qs.vlrd_id).push(qs.sqi, line))
          throw std::runtime_error("warm-restart: restore push NACKed");

    std::vector<runtime::Consumer> cons;
    cons.reserve(restored.queues.size());
    const auto ncores = static_cast<CoreId>(mB.num_cores());
    for (std::size_t c = 0; c < restored.queues.size(); ++c)
      cons.push_back(
          lib.make_consumer(h[c], mB.thread_on(c % ncores)));
    for (std::size_t c = 0; c < cons.size(); ++c)
      sim::spawn(consume_vl(cons[c], restored.queues[c].lines.size(), after));
    mB.run();

    for (const auto& qs : restored.queues)
      if (mB.cluster().device(qs.vlrd_id).queued_data(qs.sqi) != 0)
        throw std::runtime_error(
            "warm-restart: rebuilt device not drained");
  }

  finish_report(rep, produced, before, after);
  return rep;
}

// --- CAF drill --------------------------------------------------------------

WarmRestartReport caf_drill(std::uint64_t seed) {
  const sim::SystemConfig cfg = squeue::config_for(squeue::Backend::kCaf);
  WarmRestartReport rep;
  rep.backend = squeue::to_string(squeue::Backend::kCaf);

  std::vector<std::uint64_t> produced;
  std::vector<std::uint64_t> before;
  std::vector<std::uint64_t> after;
  Snapshot snap;
  snap.backend = rep.backend;

  {
    runtime::Machine mA(cfg);
    squeue::CafDevice dev(mA, cfg.caf);
    std::vector<std::unique_ptr<squeue::SimCaf>> chs;
    for (int c = 0; c < kChannels; ++c)
      chs.push_back(std::make_unique<squeue::SimCaf>(dev, 1));

    std::vector<std::vector<std::uint64_t>> vals;
    for (int c = 0; c < kChannels; ++c)
      for (int p = 0; p < kProducersPerChannel; ++p) {
        std::vector<std::uint64_t> v;
        for (int i = 0; i < kPerProducer; ++i) {
          v.push_back(stamp(seed, c, p, i));
          produced.push_back(v.back());
        }
        vals.push_back(std::move(v));
      }
    const auto ncores = static_cast<CoreId>(mA.num_cores());
    for (int c = 0; c < kChannels; ++c)
      for (int p = 0; p < kProducersPerChannel; ++p)
        sim::spawn(produce_caf(
            *chs[c],
            mA.thread_on((c * kProducersPerChannel + p) % ncores),
            vals[static_cast<std::size_t>(c * kProducersPerChannel + p)]));
    for (int c = 0; c < kChannels; ++c)
      sim::spawn(consume_caf(
          *chs[c],
          mA.thread_on((kChannels * kProducersPerChannel + c) % ncores),
          kDrainBefore, before));
    mA.run();

    // No in-flight state to quiesce: CAF words live in device SRAM the
    // moment enq() returns, and a drained run leaves no open frame grants
    // (snapshot_queue asserts that).
    if (dev.num_queues() != kChannels)
      throw std::runtime_error("warm-restart: unexpected CAF queue count");
    for (std::uint32_t q = 0; q < dev.num_queues(); ++q) {
      Snapshot::QueueState qs;
      qs.name = "caf" + std::to_string(q);
      qs.sqi = q;  // device queue id
      for (const auto& [v, cls] : dev.snapshot_queue(q))
        qs.words.emplace_back(v, static_cast<std::uint8_t>(cls));
      snap.queues.push_back(std::move(qs));
    }
    for (std::size_t i = 0; i < kQosClasses; ++i)
      snap.caf_class_credits[i] =
          dev.class_credit(static_cast<QosClass>(i));
  }

  const std::string bytes = snap.serialize();
  rep.snapshot_bytes = bytes.size();
  const Snapshot restored = Snapshot::deserialize(bytes);
  if (!(restored == snap))
    throw std::runtime_error("warm-restart: snapshot serialize round trip");
  for (const auto& qs : restored.queues) rep.resident += qs.words.size();

  {
    runtime::Machine mB(cfg);
    squeue::CafDevice dev(mB, cfg.caf);
    std::vector<std::unique_ptr<squeue::SimCaf>> chs;
    for (int c = 0; c < kChannels; ++c)
      chs.push_back(std::make_unique<squeue::SimCaf>(dev, 1));
    if (dev.num_queues() != restored.queues.size())
      throw std::runtime_error(
          "warm-restart: rebuilt queue map diverged from snapshot");

    for (std::size_t i = 0; i < kQosClasses; ++i)
      dev.set_class_credit(static_cast<QosClass>(i),
                           restored.caf_class_credits[i]);

    // The queues are empty and the resident words fit the credit budget
    // before the restart, so every enqueue must be granted.
    for (const auto& qs : restored.queues)
      for (const auto& [v, cls] : qs.words)
        if (!dev.enq(qs.sqi, v, qos_class_from_byte(cls)))
          throw std::runtime_error("warm-restart: restore enq refused");

    const auto ncores = static_cast<CoreId>(mB.num_cores());
    for (std::size_t c = 0; c < restored.queues.size(); ++c)
      sim::spawn(consume_caf(*chs[c], mB.thread_on(c % ncores),
                             restored.queues[c].words.size(), after));
    mB.run();

    for (std::uint32_t q = 0; q < dev.num_queues(); ++q)
      if (dev.depth(q) != 0)
        throw std::runtime_error(
            "warm-restart: rebuilt device not drained");
  }

  finish_report(rep, produced, before, after);
  return rep;
}

}  // namespace

// --- Snapshot wire format ---------------------------------------------------

std::string Snapshot::serialize() const {
  using wire::put;
  std::string s(kMagic, sizeof(kMagic));
  put(s, kVersion);
  wire::put_str(s, backend);
  for (std::size_t i = 0; i < kQosClasses; ++i) put(s, vl_class_quota[i]);
  put(s, vl_per_sqi_quota);
  for (std::size_t i = 0; i < kQosClasses; ++i) put(s, caf_class_credits[i]);
  put(s, static_cast<std::uint32_t>(queues.size()));
  for (const QueueState& q : queues) {
    wire::put_str(s, q.name);
    put(s, q.vlrd_id);
    put(s, q.sqi);
    put(s, static_cast<std::uint32_t>(q.lines.size()));
    for (const mem::Line& l : q.lines)
      s.append(reinterpret_cast<const char*>(l.data()), l.size());
    put(s, static_cast<std::uint32_t>(q.words.size()));
    for (const auto& [v, cls] : q.words) {
      put(s, v);
      put(s, cls);
    }
  }
  return s;
}

Snapshot Snapshot::deserialize(const std::string& bytes) {
  wire::Reader r(bytes, "warm-restart snapshot");
  r.skip(sizeof(kMagic));
  if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    r.fail("bad magic");
  if (r.get<std::uint32_t>() != kVersion) r.fail("unknown version");

  Snapshot snap;
  snap.backend = r.str();
  for (std::size_t i = 0; i < kQosClasses; ++i)
    snap.vl_class_quota[i] = r.get<std::uint32_t>();
  snap.vl_per_sqi_quota = r.get<std::uint32_t>();
  for (std::size_t i = 0; i < kQosClasses; ++i)
    snap.caf_class_credits[i] = r.get<std::uint32_t>();
  const auto nq = r.get<std::uint32_t>();
  for (std::uint32_t qi = 0; qi < nq; ++qi) {
    QueueState q;
    q.name = r.str();
    q.vlrd_id = r.get<std::uint32_t>();
    q.sqi = r.get<std::uint32_t>();
    const auto nl = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nl; ++i) {
      mem::Line l;
      for (auto& b : l) b = r.get<std::uint8_t>();
      q.lines.push_back(l);
    }
    const auto nw = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nw; ++i) {
      const auto v = r.get<std::uint64_t>();
      const auto cls = r.get<std::uint8_t>();
      q.words.emplace_back(v, cls);
    }
    snap.queues.push_back(std::move(q));
  }
  r.finish();
  return snap;
}

std::string WarmRestartReport::text() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "warm-restart backend=%s produced=%llu before=%llu "
                "resident=%llu after=%llu lost=%llu dup=%llu "
                "digest=0x%016llx bytes=%zu",
                backend.c_str(),
                static_cast<unsigned long long>(produced),
                static_cast<unsigned long long>(delivered_before),
                static_cast<unsigned long long>(resident),
                static_cast<unsigned long long>(delivered_after),
                static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(duplicated),
                static_cast<unsigned long long>(digest), snapshot_bytes);
  return buf;
}

WarmRestartReport run_warm_restart(squeue::Backend backend,
                                   std::uint64_t seed) {
  switch (backend) {
    case squeue::Backend::kVl:
    case squeue::Backend::kVlIdeal:
      return vl_drill(backend, seed);
    case squeue::Backend::kCaf:
      return caf_drill(seed);
    default:
      throw std::invalid_argument(
          std::string("warm-restart: backend '") +
          squeue::to_string(backend) +
          "' keeps its ring in host memory — only the device backends "
          "(vl, vlideal, caf) have restorable device state");
  }
}

}  // namespace vl::replay
