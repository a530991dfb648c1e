// Tenant QoS classes end-to-end: class-weighted hardware enforcement (CAF
// per-class credit caps, VLRD per-SQI class quotas), per-class aggregation
// and SLO attainment in the metrics, and byte-determinism of class-weighted
// scheduling. The load-bearing claims:
//
//   * with QoS enforced, a latency-class tenant's p99 stays under its SLO
//     while the bulk class absorbs the back-pressure (blocked_ticks);
//   * the latency class's p99 is strictly below the mixed-class p99 of the
//     same scenario with QoS disabled (the ablation baseline).

#include <gtest/gtest.h>

#include <string>

#include "squeue/factory.hpp"
#include "traffic/cell.hpp"
#include "traffic/engine.hpp"

namespace vl::traffic {
namespace {

using squeue::Backend;

ScenarioSpec without_qos(const ScenarioSpec& s) {
  ScenarioSpec off = s;
  off.qos = false;
  return off;
}

const TenantMetrics& tenant(const EngineResult& r, const std::string& name) {
  for (const auto& t : r.metrics.tenants)
    if (t.tenant == name) return t;
  ADD_FAILURE() << "no tenant " << name;
  static TenantMetrics none;
  return none;
}

class QosOverHardwareBackend : public ::testing::TestWithParam<Backend> {};

TEST_P(QosOverHardwareBackend, LatencyClassMeetsSloWhileBulkAbsorbsBackpressure) {
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    const EngineResult r =
        run({*find_scenario("qos-incast"), GetParam(), seed}).engine;
    const TenantMetrics& rt = tenant(r, "rt");
    const TenantMetrics& bulk = tenant(r, "bulk");
    ASSERT_GT(rt.delivered, 0u);
    ASSERT_GT(rt.slo_p99, 0u);
    EXPECT_LE(rt.latency.percentile(99), rt.slo_p99)
        << "seed " << seed << " on " << r.backend;
    EXPECT_GE(rt.slo_attained_pct(), 95.0) << "seed " << seed;
    // Back-pressure lands on the bulk flood: its producers spend far more
    // time blocked inside send() than the latency tenant's.
    EXPECT_GT(bulk.blocked_ticks, rt.blocked_ticks)
        << "seed " << seed << " on " << r.backend;
  }
}

TEST_P(QosOverHardwareBackend, LatencyP99BeatsMixedP99WithoutQos) {
  const ScenarioSpec* spec = find_scenario("qos-incast");
  ASSERT_NE(spec, nullptr);
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    const EngineResult on = run({*spec, GetParam(), seed}).engine;
    const EngineResult off = run({without_qos(*spec), GetParam(), seed}).engine;

    LogHistogram latency_on, mixed_off;
    for (const auto& c : on.metrics.by_class())
      if (c.cls == QosClass::kLatency) latency_on.merge(c.agg.latency);
    for (const auto& t : off.metrics.tenants) mixed_off.merge(t.latency);
    ASSERT_GT(latency_on.count(), 0u);
    ASSERT_GT(mixed_off.count(), 0u);
    EXPECT_LT(latency_on.percentile(99), mixed_off.percentile(99))
        << "seed " << seed << " on " << on.backend;
  }
}

TEST_P(QosOverHardwareBackend, ClassWeightedSchedulingIsByteDeterministic) {
  const Backend b = GetParam();
  const std::string a = run({*find_scenario("qos-incast"), b, 42}).engine.csv();
  const std::string c = run({*find_scenario("qos-incast"), b, 42}).engine.csv();
  EXPECT_EQ(a, c);
  // And the knob does something: the ablated run produces different bytes.
  const ScenarioSpec* spec = find_scenario("qos-incast");
  EXPECT_NE(a, run({without_qos(*spec), b, 42}).engine.csv());
}

INSTANTIATE_TEST_SUITE_P(HardwareBackends, QosOverHardwareBackend,
                         ::testing::Values(Backend::kCaf, Backend::kVl),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kCaf ? "CAF" : "VL";
                         });

TEST(Qos, PresetsAreRegisteredWithMixedClassesAndSlos) {
  for (const char* name : {"qos-incast", "qos-diurnal-mix"}) {
    const ScenarioSpec* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_TRUE(s->qos) << name;
    EXPECT_TRUE(validate(*s).empty()) << name << ": " << validate(*s);
    bool has_latency = false, has_bulk = false, has_slo = false;
    for (const auto& t : s->tenants) {
      has_latency |= t.qos == QosClass::kLatency;
      has_bulk |= t.qos == QosClass::kBulk;
      has_slo |= t.slo_p99 > 0;
    }
    EXPECT_TRUE(has_latency && has_bulk && has_slo) << name;
  }
}

TEST(Qos, MachineConfigPartitionsBudgetsByWeight) {
  const ScenarioSpec* spec = find_scenario("qos-incast");
  ASSERT_NE(spec, nullptr);

  // All three classes present, weights 4:2:1 over a 63-entry prodBuf share
  // and a 64-credit CAF budget.
  const sim::SystemConfig vl = machine_config_for(*spec, Backend::kVl);
  EXPECT_EQ(vl.vlrd.class_quota[static_cast<std::size_t>(QosClass::kLatency)],
            36u);
  EXPECT_EQ(vl.vlrd.class_quota[static_cast<std::size_t>(QosClass::kStandard)],
            18u);
  EXPECT_EQ(vl.vlrd.class_quota[static_cast<std::size_t>(QosClass::kBulk)], 9u);

  const sim::SystemConfig caf = machine_config_for(*spec, Backend::kCaf);
  EXPECT_EQ(
      caf.caf.class_credits[static_cast<std::size_t>(QosClass::kLatency)], 36u);
  EXPECT_EQ(
      caf.caf.class_credits[static_cast<std::size_t>(QosClass::kStandard)],
      18u);
  EXPECT_EQ(caf.caf.class_credits[static_cast<std::size_t>(QosClass::kBulk)],
            9u);

  // Ablated: every knob stays at its "unenforced" zero.
  const sim::SystemConfig off = machine_config_for(without_qos(*spec),
                                                   Backend::kVl);
  for (std::size_t c = 0; c < kQosClasses; ++c)
    EXPECT_EQ(off.vlrd.class_quota[c], 0u);

  // A class no tenant uses keeps a token quota of 1 (pills still flow).
  const ScenarioSpec* mix = find_scenario("qos-diurnal-mix");
  ASSERT_NE(mix, nullptr);
  const sim::SystemConfig two = machine_config_for(*mix, Backend::kVl);
  EXPECT_EQ(two.vlrd.class_quota[static_cast<std::size_t>(QosClass::kStandard)],
            1u);
  EXPECT_GT(two.vlrd.class_quota[static_cast<std::size_t>(QosClass::kLatency)],
            two.vlrd.class_quota[static_cast<std::size_t>(QosClass::kBulk)]);

  // Software backends get no quotas either way.
  const sim::SystemConfig blfq = machine_config_for(*spec, Backend::kBlfq);
  for (std::size_t c = 0; c < kQosClasses; ++c)
    EXPECT_EQ(blfq.vlrd.class_quota[c], 0u);
}

TEST(Qos, CountLeAndSloAttainmentMath) {
  LogHistogram h;
  for (std::uint64_t v : {10, 20, 30, 40, 1000}) h.record(v);
  EXPECT_EQ(h.count_le(9), 0u);
  EXPECT_EQ(h.count_le(10), 1u);
  EXPECT_EQ(h.count_le(40), 4u);
  EXPECT_EQ(h.count_le(900), 4u);   // bucket granularity, below 1000's bucket
  EXPECT_EQ(h.count_le(1000), 5u);
  EXPECT_EQ(h.count_le(~std::uint64_t{0}), 5u);

  TenantMetrics t;
  t.slo_p99 = 40;
  t.delivered = 5;
  t.latency = h;
  EXPECT_EQ(t.slo_within(), 4u);
  EXPECT_DOUBLE_EQ(t.slo_attained_pct(), 80.0);

  TenantMetrics no_slo;
  no_slo.delivered = 3;
  EXPECT_DOUBLE_EQ(no_slo.slo_attained_pct(), 100.0);  // vacuously met
}

TEST(Qos, ByClassAggregatesTenantsAndTheirOwnBudgets) {
  ScenarioMetrics m;
  TenantMetrics a;  // latency, tight budget: 1 of 2 within
  a.tenant = "a";
  a.qos = QosClass::kLatency;
  a.slo_p99 = 10;
  a.delivered = 2;
  a.latency.record(5);
  a.latency.record(50);
  TenantMetrics b;  // latency, loose budget: 2 of 2 within
  b.tenant = "b";
  b.qos = QosClass::kLatency;
  b.slo_p99 = 100;
  b.delivered = 2;
  b.latency.record(60);
  b.latency.record(70);
  TenantMetrics c;  // bulk, no SLO
  c.tenant = "c";
  c.qos = QosClass::kBulk;
  c.delivered = 4;
  c.latency.record(500, 4);
  m.tenants = {a, b, c};

  EXPECT_EQ(m.distinct_classes(), 2u);
  const auto classes = m.by_class();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].cls, QosClass::kLatency);
  EXPECT_EQ(classes[0].agg.delivered, 4u);
  EXPECT_EQ(classes[0].slo_delivered, 4u);
  EXPECT_EQ(classes[0].slo_within, 3u);  // 1 (tight) + 2 (loose)
  EXPECT_DOUBLE_EQ(classes[0].slo_attained_pct(), 75.0);
  EXPECT_EQ(classes[1].cls, QosClass::kBulk);
  EXPECT_EQ(classes[1].slo_delivered, 0u);
  EXPECT_DOUBLE_EQ(classes[1].slo_attained_pct(), 100.0);

  // Mixed classes surface per-class CSV rows: 3 tenants + 2 classes + "*".
  EXPECT_EQ(m.csv_rows().size(), 6u);
}

TEST(Qos, QosScenariosStayGreenOnSoftwareBackends) {
  // BLFQ/ZMQ have no enforcement knob; the classes are recorded, the spec
  // still runs green with conservation intact (covered for all presets by
  // test_engine, asserted here for the QoS pair explicitly).
  for (Backend b : {Backend::kBlfq, Backend::kZmq}) {
    const EngineResult r = run({*find_scenario("qos-incast"), b, 7}).engine;
    for (const auto& t : r.metrics.tenants) {
      EXPECT_EQ(t.generated, t.sent + t.dropped);
      EXPECT_EQ(t.delivered, t.sent);
    }
    EXPECT_GT(r.metrics.total_delivered(), 0u);
  }
}

}  // namespace
}  // namespace vl::traffic
