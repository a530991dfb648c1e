// Traffic-engine integration: every registry preset must run green over
// every backend with exact message conservation; runs are deterministic
// (byte-identical CSV) for a fixed seed; queue-depth sampling rides on
// Channel::depth() for all five backends.

#include "traffic/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "squeue/factory.hpp"
#include "traffic/cell.hpp"

namespace vl::traffic {
namespace {

using squeue::Backend;

const char* backend_test_name(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kBlfq: return "BLFQ";
    case Backend::kZmq: return "ZMQ";
    case Backend::kVl: return "VL";
    case Backend::kVlIdeal: return "VLideal";
    case Backend::kCaf: return "CAF";
  }
  return "?";
}

class TrafficOverBackend : public ::testing::TestWithParam<Backend> {};

TEST_P(TrafficOverBackend, EveryPresetRunsGreenAndConserves) {
  for (const auto& name : scenario_names()) {
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
      const EngineResult r =
          run({*find_scenario(name), GetParam(), seed}).engine;
      const ScenarioMetrics& m = r.metrics;
      EXPECT_GT(m.ticks, 0u) << name;
      EXPECT_GT(m.total_delivered(), 0u) << name;
      ASSERT_EQ(m.tenants.size(), find_scenario(name)->tenants.size())
          << name;
      for (const auto& t : m.tenants) {
        // Conservation: everything generated was either sent or shed, and
        // everything sent arrived (channels are lossless).
        EXPECT_EQ(t.generated, t.sent + t.dropped)
            << name << "/" << t.tenant << " seed " << seed;
        EXPECT_EQ(t.delivered, t.sent)
            << name << "/" << t.tenant << " seed " << seed;
        EXPECT_EQ(t.latency.count(), t.delivered)
            << name << "/" << t.tenant << " seed " << seed;
        EXPECT_GT(t.latency.max(), 0u) << name << "/" << t.tenant;
      }
      // The depth sampler observed every channel at least once.
      ASSERT_FALSE(m.depths.empty()) << name;
      for (const auto& d : m.depths) EXPECT_GE(d.samples, 1u) << name;
    }
  }
}

TEST_P(TrafficOverBackend, DepthReflectsQueuedMessages) {
  // Cross-backend Channel::depth() contract: after K accepted sends with
  // no consumer, depth() reports K; after draining, 0.
  const Backend b = GetParam();
  runtime::Machine m(squeue::config_for(b));
  squeue::ChannelFactory f(m, b);
  auto ch = f.make("depth-probe");
  constexpr std::uint64_t kMsgs = 8;

  sim::spawn([](squeue::Channel& q, sim::SimThread t) -> sim::Co<void> {
    for (std::uint64_t i = 0; i < kMsgs; ++i) co_await q.send1(t, i);
  }(*ch, m.thread_on(0)));
  m.run();
  EXPECT_EQ(ch->depth(), kMsgs);

  sim::spawn([](squeue::Channel& q, sim::SimThread t) -> sim::Co<void> {
    for (std::uint64_t i = 0; i < kMsgs; ++i) (void)co_await q.recv1(t);
  }(*ch, m.thread_on(1)));
  m.run();
  EXPECT_EQ(ch->depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TrafficOverBackend,
                         ::testing::Values(Backend::kBlfq, Backend::kZmq,
                                           Backend::kVl, Backend::kVlIdeal,
                                           Backend::kCaf),
                         backend_test_name);

TEST(TrafficEngine, FixedSeedIsByteDeterministic) {
  const std::string a =
      run({*find_scenario("incast-burst"), Backend::kVl, 42}).engine.csv();
  const std::string b =
      run({*find_scenario("incast-burst"), Backend::kVl, 42}).engine.csv();
  EXPECT_EQ(a, b);
}

TEST(TrafficEngine, SeedDeterminismSurvivesParkWakeScheduling) {
  // Kernel-overhaul regression: park/wake and run-queue grants flow
  // through the (tick, seq)-ordered event queue, so two runs of the same
  // seed must agree on everything — final tick, executed kernel events,
  // and per-tenant message counts — on the backends that park the most
  // (ZMQ empty/full/lock waits, VL producer back-pressure).
  for (Backend b : {Backend::kZmq, Backend::kVl, Backend::kCaf}) {
    const EngineResult r1 = run({*find_scenario("incast-burst"), b, 7}).engine;
    const EngineResult r2 = run({*find_scenario("incast-burst"), b, 7}).engine;
    EXPECT_EQ(r1.metrics.ticks, r2.metrics.ticks) << squeue::to_string(b);
    EXPECT_EQ(r1.events, r2.events) << squeue::to_string(b);
    EXPECT_EQ(r1.metrics.total_delivered(), r2.metrics.total_delivered());
    ASSERT_EQ(r1.metrics.tenants.size(), r2.metrics.tenants.size());
    for (std::size_t i = 0; i < r1.metrics.tenants.size(); ++i) {
      EXPECT_EQ(r1.metrics.tenants[i].sent, r2.metrics.tenants[i].sent);
      EXPECT_EQ(r1.metrics.tenants[i].blocked_ticks,
                r2.metrics.tenants[i].blocked_ticks);
    }
  }
}

TEST(TrafficEngine, BlockedTicksTrackBackpressure) {
  // incast-burst over ZMQ saturates the high-water mark, so producers
  // spend real simulated time blocked inside send(); the per-tenant
  // blocked-ticks counter must surface that (and dwarf the per-message
  // transfer cost under overload).
  const EngineResult r =
      run({*find_scenario("incast-burst"), Backend::kZmq, 42}).engine;
  std::uint64_t blocked = 0, sent = 0;
  for (const auto& t : r.metrics.tenants) {
    blocked += t.blocked_ticks;
    sent += t.sent;
  }
  ASSERT_GT(sent, 0u);
  EXPECT_GT(blocked, 0u);
  // Under saturation the mean send occupancy far exceeds an uncontended
  // ZMQ transfer (~a few hundred ticks of software overhead).
  EXPECT_GT(blocked / sent, 500u);
  // And the CSV carries the column so scenario_runner output exposes it.
  EXPECT_NE(r.csv().find("blocked_ticks"), std::string::npos);
}

TEST(TrafficEngine, SeedChangesTheRun) {
  const std::string a =
      run({*find_scenario("incast-burst"), Backend::kBlfq, 1}).engine.csv();
  const std::string b =
      run({*find_scenario("incast-burst"), Backend::kBlfq, 2}).engine.csv();
  EXPECT_NE(a, b);
}

TEST(TrafficEngine, OverloadShedsAtTheConfiguredDepth) {
  const EngineResult r =
      run({*find_scenario("lossy-incast"), Backend::kBlfq, 7}).engine;
  const auto& t = r.metrics.tenants.at(0);
  EXPECT_GT(t.dropped, 0u);  // offered >> service; shedding must kick in
  EXPECT_GT(t.delivered, 0u);
  EXPECT_EQ(t.generated, t.sent + t.dropped);
}

TEST(TrafficEngine, ClosedLoopBoundsOutstandingLatency) {
  // With a window of 4 and one bottleneck consumer, queue depth can never
  // exceed producers * window.
  const EngineResult r =
      run({*find_scenario("closed-loop-incast"), Backend::kBlfq, 3}).engine;
  const auto* spec = find_scenario("closed-loop-incast");
  const double bound =
      static_cast<double>(spec->producers) * spec->window;
  ASSERT_FALSE(r.metrics.depths.empty());
  EXPECT_LE(r.metrics.depths[0].depth.max(), bound);
  EXPECT_EQ(r.metrics.tenants[0].delivered,
            r.metrics.tenants[0].generated);
}

TEST(TrafficEngine, ScaleMultipliesTraffic) {
  const EngineResult r1 =
      run({*find_scenario("steady-pipeline"), Backend::kBlfq, 5, 1}).engine;
  const EngineResult r2 =
      run({*find_scenario("steady-pipeline"), Backend::kBlfq, 5, 2}).engine;
  EXPECT_EQ(r2.metrics.total_generated(), 2 * r1.metrics.total_generated());
}

TEST(TrafficEngine, RejectsUnknownAndInvalidScenarios) {
  EXPECT_EQ(find_scenario("nope"), nullptr);

  runtime::Machine m;
  squeue::ChannelFactory f(m, Backend::kBlfq);
  Engine eng(m, f);
  ScenarioSpec bad;  // no name, no tenants
  EXPECT_THROW(eng.run(bad, 1), std::invalid_argument);
}

TEST(TrafficEngine, ManyProducersOpenLoopConservePerTenant) {
  // More producers than the stamp's 8-bit producer field holds: open loop
  // never routes on the id, so the masked stamp must keep every message
  // attributed to its own tenant.
  ScenarioSpec spec = *find_scenario("incast-burst");
  spec.producers = 300;
  spec.tenants.push_back(spec.tenants.front());
  spec.tenants.back().name = "burst2";
  ASSERT_EQ(spec.tenants.size(), 3u);
  for (auto& t : spec.tenants) t.messages_per_producer = 2;
  const EngineResult r = run({spec, Backend::kZmq, 42}).engine;
  const std::vector<int> split = tenant_producer_split(spec);
  ASSERT_EQ(r.metrics.tenants.size(), 3u);
  for (std::size_t i = 0; i < split.size(); ++i) {
    const auto& t = r.metrics.tenants[i];
    EXPECT_EQ(t.generated, 2u * static_cast<std::uint64_t>(split[i]))
        << t.tenant;
    EXPECT_EQ(t.generated, t.sent + t.dropped) << t.tenant;
    EXPECT_EQ(t.delivered, t.sent) << t.tenant;
    EXPECT_EQ(t.latency.count(), t.delivered) << t.tenant;
  }
  EXPECT_EQ(r.metrics.total_delivered(), 600u);
}

TEST(TrafficEngine, CsvHasPrefixColumnsAndStableShape) {
  const EngineResult r =
      run({*find_scenario("multitenant-mesh"), Backend::kZmq, 9}).engine;
  const std::string csv = r.csv();
  EXPECT_EQ(csv.find("scenario,backend,seed,scale,tenant"), 0u);
  // 1 header + 3 tenants + 1 aggregate.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 5);
  EXPECT_NE(csv.find("multitenant-mesh,ZMQ,9,1,gold"), std::string::npos);
}

}  // namespace
}  // namespace vl::traffic
