// traffic::Cell: check() is the one list of unsupported combinations, one
// table row per rule. A rule on what an engine cannot run (unsupported())
// also makes run() throw with the same reason; a rule on an input an
// engine gates off or ignores is the CLIs' to enforce, so run() still
// runs the cell. Supported cells of each kind — classic, sharded, replay,
// churn — give the same CSV through run() as through the engine called
// directly.

#include "traffic/cell.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/hooks.hpp"
#include "replay/trace.hpp"
#include "traffic/engine.hpp"

namespace vl::traffic {
namespace {

using squeue::Backend;

/// A small sharded cell of shard-diurnal, the one sharded preset.
Cell sharded_cell(int shards = 2) {
  Cell c(*find_scenario("shard-diurnal"), Backend::kVl, 42);
  c.shards = shards;
  c.population = 4000;
  c.messages = 2048;
  return c;
}

/// Trace metadata in the shape of `spec` (rules read only the metadata).
replay::Trace trace_for(const ScenarioSpec& spec, bool sharded) {
  replay::Trace t;
  t.scenario = spec.name;
  t.producers = static_cast<std::uint32_t>(spec.producers);
  t.tenants = static_cast<std::uint32_t>(spec.tenants.size());
  t.sharded = sharded;
  return t;
}

struct Row {
  const char* rule;
  std::function<Cell()> cell;
  const char* reason;  ///< A substring of check()'s reason.
  bool engine;         ///< run() throws the same reason.
};

TEST(Cell, EveryRuleHasANamedReason) {
  const replay::Trace sharded_trace =
      trace_for(*find_scenario("qos-incast"), true);
  const replay::Trace classic_trace =
      trace_for(*find_scenario("shard-diurnal"), false);
  const replay::Trace qos_trace =
      trace_for(*find_scenario("qos-incast"), false);
  replay::TraceRecorder recorder;
  obs::RunHooks record_hooks;
  record_hooks.recorder = &recorder;

  const auto classic = [](const char* name, Backend b) {
    return Cell(*find_scenario(name), b, 42);
  };
  const std::vector<Row> rows = {
      {"sharded trace on the classic engine",
       [&] {
         Cell c = classic("qos-incast", Backend::kVl);
         c.spec.replay = &sharded_trace;
         return c;
       },
       "recorded by the sharded engine", true},
      {"classic trace on the mesh",
       [&] {
         Cell c = sharded_cell();
         c.spec.replay = &classic_trace;
         return c;
       },
       "recorded by the classic engine", true},
      {"trace shape differs from the scenario",
       [&] {
         Cell c = classic("incast-burst", Backend::kVl);
         c.spec.replay = &qos_trace;
         return c;
       },
       "does not match scenario 'incast-burst'", true},
      {"reconfig on ZMQ",
       [&] {
         Cell c = classic("qos-incast", Backend::kZmq);
         c.spec.lifecycle = replay::LifecycleSpec::parse("reconfig@20000");
         return c;
       },
       "backend 'ZMQ' has none", true},
      {"reconfig on CAF",
       [&] {
         Cell c = classic("qos-incast", Backend::kCaf);
         c.spec.lifecycle = replay::LifecycleSpec::parse("reconfig@20000");
         return c;
       },
       "backend 'CAF' has none", true},
      {"lifecycle events on the mesh",
       [] {
         Cell c = sharded_cell();
         c.spec.lifecycle = replay::LifecycleSpec::parse("reconfig@20000");
         return c;
       },
       "classic engine only", true},
      {"negative shard count", [] { return sharded_cell(-1); },
       "shards must be >= 1", true},
      {"no sharding population",
       [] {
         Cell c = sharded_cell();
         c.population = 0;
         c.spec.sharding.population = 0;
         return c;
       },
       "no sharding population", true},
      {"no sharding message budget",
       [] {
         Cell c = sharded_cell();
         c.messages = 0;
         c.spec.sharding.messages_total = 0;
         return c;
       },
       "no sharding message budget", true},
      {"fan-in topology on the mesh",
       [] {
         Cell c = sharded_cell();
         c.spec.topology = Topology::kFanIn;
         return c;
       },
       "fan-out/mesh topology", true},
      {"closed loop on the mesh",
       [] {
         Cell c = sharded_cell();
         c.spec.closed_loop = true;
         return c;
       },
       "open-loop only", true},
      {"more shards than consumers",
       [] {
         return sharded_cell(find_scenario("shard-diurnal")->consumers + 1);
       },
       "consumers >= shards", true},
      {"drop_depth shedding on the mesh",
       [] {
         Cell c = sharded_cell();
         c.spec.tenants.back().drop_depth = 16;
         return c;
       },
       "drop_depth shedding", true},
      {"population override on the classic engine",
       [&] {
         Cell c = classic("incast-burst", Backend::kVl);
         c.population = 100;
         return c;
       },
       "sharded engine only (shards > 0)", false},
      {"sim_threads on the classic engine",
       [&] {
         Cell c = classic("incast-burst", Backend::kVl);
         c.sim_threads = 4;
         return c;
       },
       "sharded engine only (shards > 0)", false},
      {"channel loss on a device backend",
       [&] {
         Cell c = classic("incast-burst", Backend::kVl);
         c.spec.faults = fault::FaultSpec::parse("loss@0+1000:every=4");
         return c;
       },
       "backend 'VL64' gates them off", false},
      {"channel loss with a replayed trace",
       [&] {
         Cell c = classic("qos-incast", Backend::kBlfq);
         c.spec.faults = fault::FaultSpec::parse("dup@0+1000:every=4");
         c.spec.replay = &qos_trace;
         return c;
       },
       "post-shed stream", false},
      {"recording a replay",
       [&] {
         Cell c = classic("qos-incast", Backend::kVl);
         c.spec.replay = &qos_trace;
         c.obs = &record_hooks;
         return c;
       },
       "record or replay, not both", false},
  };
  for (const Row& row : rows) {
    const Cell cell = row.cell();
    const std::string why = cell.check();
    EXPECT_NE(why.find(row.reason), std::string::npos)
        << row.rule << ": check() said '" << why << "'";
    if (!row.engine) continue;
    try {
      (void)run(cell);
      ADD_FAILURE() << row.rule << ": run() did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), why) << row.rule;
    }
  }
}

// --- supported cells, one per kind ------------------------------------------

/// `spec` on a fresh machine through Engine::run directly.
EngineResult direct(const ScenarioSpec& spec, Backend b, std::uint64_t seed) {
  runtime::Machine m(machine_config_for(spec, b));
  squeue::ChannelFactory f(m, b);
  return Engine(m, f).run(spec, seed);
}

TEST(Cell, ClassicCellMatchesTheEngine) {
  Cell c(*find_scenario("incast-burst"), Backend::kVl, 42);
  c.batch = 8;
  ASSERT_EQ(c.check(), "");
  ScenarioSpec spec = c.spec;
  for (auto& t : spec.tenants) t.batch = 8;
  const ShardedResult r = run(c);
  EXPECT_EQ(r.shards, 0);
  EXPECT_EQ(r.engine.csv(), direct(spec, Backend::kVl, 42).csv());
}

TEST(Cell, ShardedCellMatchesRunSharded) {
  const Cell c = sharded_cell();
  ASSERT_EQ(c.check(), "");
  const ShardedResult r = run(c);
  const ShardedResult d = run_sharded(c.spec, c.backend, c.seed, c);
  EXPECT_EQ(r.engine.csv(), d.engine.csv());
  EXPECT_EQ(r.shard_digests, d.shard_digests);
}

TEST(Cell, ReplayCellMatchesTheEngine) {
  ScenarioSpec spec = *find_scenario("qos-incast");
  spec.supervisor = false;
  replay::TraceRecorder rec;
  obs::RunHooks hooks;
  hooks.recorder = &rec;
  ASSERT_EQ(Cell(spec, Backend::kCaf, 7, 1, &hooks).check(), "");
  (void)run({spec, Backend::kCaf, 7, 1, &hooks});
  const replay::Trace trace = rec.finish();
  ASSERT_FALSE(trace.empty());

  spec.replay = &trace;
  const Cell c(spec, Backend::kCaf, 7);
  ASSERT_EQ(c.check(), "");
  EXPECT_EQ(run(c).engine.csv(), direct(spec, Backend::kCaf, 7).csv());
}

TEST(Cell, ChurnCellMatchesTheEngine) {
  ScenarioSpec spec = *find_scenario("qos-incast");
  spec.lifecycle = replay::LifecycleSpec::parse(
      "leave@30000:tenant=bulk;join@45000:tenant=bulk;reconfig@20000");
  const Cell c(spec, Backend::kVl, 42);
  ASSERT_EQ(c.check(), "");
  EXPECT_EQ(run(c).engine.csv(), direct(spec, Backend::kVl, 42).csv());
}

}  // namespace
}  // namespace vl::traffic
