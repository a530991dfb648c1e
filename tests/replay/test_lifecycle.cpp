// Lifecycle plane: spec parse/summary round trips, the plane's pure
// (spec, now) queries, reconfig one-shot consumption, and engine-level
// churn — tenants leaving and rejoining mid-run keep the conservation
// identity generated == delivered + dropped exact on every backend, and
// churned runs stay deterministic, and a churn boundary re-carves through
// the QoS supervisor instead of overwriting its quotas.

#include "replay/lifecycle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "obs/timeline.hpp"
#include "traffic/cell.hpp"
#include "traffic/engine.hpp"

namespace vl::replay {
namespace {

TEST(LifecycleSpec, ParseSummaryRoundTrip) {
  const char* text =
      "leave@30000:tenant=bulk;join@45000:tenant=bulk;reconfig@20000";
  const LifecycleSpec s = LifecycleSpec::parse(text);
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].kind, LifecycleEvent::Kind::kLeave);
  EXPECT_EQ(s.events[0].at, 30000u);
  EXPECT_EQ(s.events[0].tenant, "bulk");
  EXPECT_EQ(s.events[2].kind, LifecycleEvent::Kind::kReconfig);
  EXPECT_EQ(s.events[2].channel, -1);
  EXPECT_TRUE(s.has_churn());
  EXPECT_TRUE(s.has_reconfig());
  EXPECT_EQ(LifecycleSpec::parse(s.summary()).summary(), s.summary());
}

TEST(LifecycleSpec, ParseChannelScopedReconfig) {
  const LifecycleSpec s = LifecycleSpec::parse("reconfig@500:channel=2");
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].channel, 2);
  EXPECT_FALSE(s.has_churn());
}

TEST(LifecycleSpec, MalformedInputsThrow) {
  EXPECT_THROW(LifecycleSpec::parse("frobnicate@100"), std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("join@"), std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("join@100"), std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("leave@xyz:tenant=a"),
               std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("reconfig@5:channel=abc"),
               std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("reconfig@5:channel=-1"),
               std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("join@1:tenant=a,tenant=b"),
               std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("join@18446744073709551616:tenant=a"),
               std::invalid_argument);
}

TEST(LifecyclePlane, WindowsAndNextActive) {
  const LifecycleSpec s =
      LifecycleSpec::parse("leave@100:tenant=a;join@300:tenant=a");
  const LifecyclePlane p(s, {"a", "b"});
  // Tenant a: active, inactive over [100, 300), active again.
  EXPECT_EQ(p.next_active(0, 0), 0u);
  EXPECT_EQ(p.next_active(0, 100), 300u);
  EXPECT_EQ(p.next_active(0, 299), 300u);
  EXPECT_EQ(p.next_active(0, 300), 0u);
  EXPECT_TRUE(p.tenant_has_events(0));
  // Tenant b has no events: always active, skips the per-lap check.
  EXPECT_EQ(p.next_active(1, 12345), 0u);
  EXPECT_FALSE(p.tenant_has_events(1));
  // Active-tenant census around the boundaries.
  EXPECT_TRUE(p.tenant_active_at(0, 0));
  EXPECT_FALSE(p.tenant_active_at(0, 150));
  EXPECT_TRUE(p.tenant_active_at(0, 300));
  ASSERT_EQ(p.churn_boundaries().size(), 2u);
  EXPECT_EQ(p.churn_boundaries()[0], 100u);
  EXPECT_EQ(p.churn_boundaries()[1], 300u);
}

TEST(LifecyclePlane, FirstEventJoinStartsInactive) {
  const LifecycleSpec s = LifecycleSpec::parse("join@500:tenant=late");
  const LifecyclePlane p(s, {"late"});
  EXPECT_EQ(p.next_active(0, 0), 500u);
  EXPECT_EQ(p.next_active(0, 500), 0u);
}

TEST(LifecyclePlane, LeaveWithNoRejoinForfeitsForever) {
  const LifecycleSpec s = LifecycleSpec::parse("leave@100:tenant=a");
  const LifecyclePlane p(s, {"a"});
  EXPECT_EQ(p.next_active(0, 100), LifecyclePlane::kNever);
}

TEST(LifecyclePlane, ReconfigFiresOncePerChannel) {
  const LifecycleSpec s = LifecycleSpec::parse("reconfig@100");
  LifecyclePlane p(s, {"a"});
  EXPECT_FALSE(p.take_reconfig(0, 50));  // not due yet
  EXPECT_TRUE(p.take_reconfig(0, 100));
  EXPECT_FALSE(p.take_reconfig(0, 200));  // wildcard: once per channel
  EXPECT_TRUE(p.take_reconfig(1, 200));   // other channels still due
  EXPECT_FALSE(p.take_reconfig(1, 300));

  LifecyclePlane named(LifecycleSpec::parse("reconfig@100:channel=1"), {"a"});
  EXPECT_FALSE(named.take_reconfig(0, 200));  // wrong channel
  EXPECT_TRUE(named.take_reconfig(1, 200));
  EXPECT_FALSE(named.take_reconfig(1, 300));  // named event fires once
}

// --- engine-level churn ------------------------------------------------------

TEST(LifecycleEngine, ChurnConservesOnEveryBackend) {
  using squeue::Backend;
  for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                    Backend::kVlIdeal, Backend::kCaf}) {
    traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
    spec.supervisor = false;
    spec.lifecycle =
        LifecycleSpec::parse("leave@30000:tenant=bulk;join@45000:tenant=bulk");
    const traffic::EngineResult r = traffic::run({spec, b, 42}).engine;
    for (const traffic::TenantMetrics& t : r.metrics.tenants) {
      EXPECT_EQ(t.generated, t.delivered + t.dropped)
          << squeue::to_string(b) << "/" << t.tenant;
      EXPECT_GT(t.delivered, 0u) << squeue::to_string(b) << "/" << t.tenant;
    }
  }
}

TEST(LifecycleEngine, ChurnedRunIsDeterministic) {
  traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
  spec.supervisor = false;
  spec.lifecycle =
      LifecycleSpec::parse("leave@30000:tenant=bulk;join@45000:tenant=bulk");
  const traffic::EngineResult a =
      traffic::run({spec, squeue::Backend::kVl, 42}).engine;
  const traffic::EngineResult b =
      traffic::run({spec, squeue::Backend::kVl, 42}).engine;
  EXPECT_EQ(a.csv(), b.csv());
}

TEST(LifecycleEngine, UnknownTenantThrows) {
  traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
  spec.lifecycle = LifecycleSpec::parse("leave@100:tenant=nosuch");
  EXPECT_THROW(traffic::run({spec, squeue::Backend::kVl, 42}).engine,
               std::invalid_argument);
}

// A churn boundary hands the supervisor the active classes; it re-carves
// with its own weights instead of being overwritten by a base-weight carve.
// So whenever the supervisor holds bulk at its weight floor, the device's
// bulk quota is the floor quota — across the leave and the rejoin too.
TEST(LifecycleEngine, ChurnKeepsTheSupervisorsClassQuotas) {
  using squeue::Backend;
  traffic::ScenarioSpec spec = *traffic::find_scenario("qos-adversarial-bulk");
  ASSERT_TRUE(spec.supervisor);
  spec.lifecycle = LifecycleSpec::parse(
      "leave@100000:tenant=web;join@200000:tenant=web");
  runtime::Machine m(traffic::machine_config_for(spec, Backend::kVl));
  squeue::ChannelFactory f(m, Backend::kVl);
  obs::Timeline tl;
  tl.add_series("probe.bulk_quota", [&m] {
    return static_cast<double>(
        m.cluster().device(0).class_quota(QosClass::kBulk));
  });
  obs::RunHooks hooks;
  hooks.timeline = &tl;
  hooks.sample_every = 2500;  // the supervisor's default control cadence
  traffic::Engine(m, f).run(spec, 42, 1, &hooks);

  const auto& names = tl.names();
  const auto col = [&names](const char* n) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), n) - names.begin());
  };
  const std::size_t quota = col("probe.bulk_quota");
  const std::size_t weight = col("sup.weight.bulk");
  ASSERT_LT(weight, names.size());
  const double floor = runtime::QosSupervisor::Config{}.floor *
                       qos_weight(QosClass::kBulk);
  int floored = 0, floored_after_churn = 0;
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const obs::Timeline::Epoch& e = tl.at(i);
    if (e.values[weight] > floor + 1e-9) continue;
    ++floored;
    if (e.tick >= 100000) ++floored_after_churn;
    EXPECT_EQ(e.values[quota], 1.0) << "tick " << e.tick;
  }
  EXPECT_GT(floored, 0);
  EXPECT_GT(floored_after_churn, 0);
}

}  // namespace
}  // namespace vl::replay
