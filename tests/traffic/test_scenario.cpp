// ScenarioSpec validation, scaling, tenant splitting, and the preset
// registry contract the runner CLI depends on.

#include "traffic/scenario.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace vl::traffic {
namespace {

ScenarioSpec minimal() {
  ScenarioSpec s;
  s.name = "t";
  s.tenants.push_back(TenantSpec{});
  return s;
}

TEST(Scenario, RegistryHasTheDocumentedPresets) {
  for (const char* name :
       {"incast-burst", "diurnal-fanout", "multitenant-mesh",
        "steady-pipeline", "closed-loop-incast", "lossy-incast",
        "qos-incast", "qos-diurnal-mix"}) {
    const ScenarioSpec* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name, name);
    EXPECT_TRUE(validate(*s).empty())
        << name << ": " << validate(*s);
  }
  EXPECT_GE(scenario_names().size(), 8u);
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(Scenario, ValidateAcceptsMinimalSpec) {
  EXPECT_EQ(validate(minimal()), "");
}

TEST(Scenario, ValidateRejectsBadSpecs) {
  auto bad = minimal();
  bad.name = "";
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.producers = 0;
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.tenants.clear();
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.tenants[0].msg_words = 9;
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.tenants[0].share = 0.0;
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.stages = 3;  // stages only meaningful for pipeline
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.topology = Topology::kPipeline;
  bad.stages = 1;
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.producers = 1;
  bad.tenants.push_back(TenantSpec{});  // 2 tenants, 1 producer
  EXPECT_NE(validate(bad), "");

  bad = minimal();
  bad.closed_loop = true;
  bad.window = 0;
  EXPECT_NE(validate(bad), "");

  // Tenant id 0xff is the pill marker, so 255 tenants is the ceiling.
  bad = minimal();
  bad.tenants.assign(256, TenantSpec{});
  bad.producers = 256;
  EXPECT_NE(validate(bad), "");
  bad.tenants.resize(255);
  EXPECT_EQ(validate(bad), "");

  // Closed-loop acks route on the 8-bit producer id.
  bad = minimal();
  bad.closed_loop = true;
  bad.producers = 257;
  EXPECT_NE(validate(bad), "");
  bad.producers = 256;
  EXPECT_EQ(validate(bad), "");
}

TEST(Scenario, ScaledMultipliesMessageCounts) {
  auto s = minimal();
  s.tenants[0].messages_per_producer = 100;
  EXPECT_EQ(scaled(s, 1).tenants[0].messages_per_producer, 100u);
  EXPECT_EQ(scaled(s, 5).tenants[0].messages_per_producer, 500u);
}

TEST(Scenario, TenantSplitConservesProducersAndRespectsShares) {
  ScenarioSpec s = minimal();
  s.producers = 10;
  s.tenants[0].share = 0.7;
  TenantSpec t2;
  t2.share = 0.2;
  TenantSpec t3;
  t3.share = 0.1;
  s.tenants.push_back(t2);
  s.tenants.push_back(t3);

  const auto split = tenant_producer_split(s);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), 0), 10);
  for (int n : split) EXPECT_GE(n, 1);
  EXPECT_GT(split[0], split[1]);
  EXPECT_GE(split[1], split[2]);
}

TEST(Scenario, TenantSplitGivesEveryTenantOneProducer) {
  ScenarioSpec s = minimal();
  s.producers = 3;
  s.tenants[0].share = 1000.0;
  s.tenants.push_back(TenantSpec{.share = 0.001});
  s.tenants.push_back(TenantSpec{.share = 0.001});
  const auto split = tenant_producer_split(s);
  EXPECT_EQ(split, (std::vector<int>{1, 1, 1}));
}

TEST(Scenario, SplitIsDeterministic) {
  ScenarioSpec s = minimal();
  s.producers = 7;
  s.tenants.push_back(TenantSpec{.share = 1.0});
  EXPECT_EQ(tenant_producer_split(s), tenant_producer_split(s));
}

}  // namespace
}  // namespace vl::traffic
