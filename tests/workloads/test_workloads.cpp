// Integration tests: every *registered* workload completes correctly on
// every queue backend (small scales — the benches run the full sizes), the
// cross-backend relationships the paper reports hold in miniature, the
// Fig. 11 headline holds in direction, and the Fig. 12 absolute-speedup
// curve lands near the paper with the calibrated per-comparison cost.

#include <gtest/gtest.h>

#include "workloads/runner.hpp"

namespace vl::workloads {
namespace {

using squeue::Backend;

struct Combo {
  std::string name;
  Backend backend;
};

class WorkloadMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(WorkloadMatrix, CompletesAndReportsSaneNumbers) {
  RunConfig rc = default_config(GetParam().name);
  rc.backend = GetParam().backend;
  rc.scale = 1;
  rc.bitonic_workers = 3;
  const WorkloadResult r = run(GetParam().name, rc);
  EXPECT_GT(r.ticks, 0u);
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.ns, 0.0);
  EXPECT_GT(r.events, 0u);
  // Correctness sentinels embedded in the workload name must be absent.
  EXPECT_EQ(r.workload.find('!'), std::string::npos) << r.workload;
}

std::vector<Combo> all_combos() {
  std::vector<Combo> cs;
  for (const std::string& name : workload_names()) {
    for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                      Backend::kVlIdeal, Backend::kCaf}) {
      cs.push_back({name, b});
    }
  }
  return cs;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, WorkloadMatrix,
                         ::testing::ValuesIn(all_combos()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           n += "_";
                           n += squeue::to_string(info.param.backend);
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(WorkloadRegistry, LooksUpByNameAndRejectsUnknown) {
  EXPECT_NE(find_workload("halo"), nullptr);
  EXPECT_NE(find_workload("bitonic"), nullptr);
  EXPECT_EQ(find_workload("no-such-workload"), nullptr);
  // Registered names are unique and ordered.
  const auto names = workload_names();
  EXPECT_GE(names.size(), 11u);  // 7 Table II + 4 extension kernels
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_NE(names[i - 1], names[i]);
}

TEST(WorkloadRegistry, ChannelCountsComeFromTheWorldGraph) {
  // Workloads that declare a channel-count fn feed the VL quota carve.
  const WorkloadInfo* sg = find_workload("scatter-gather");
  ASSERT_NE(sg, nullptr);
  ASSERT_NE(sg->channel_count, nullptr);
  // star(7) biconnected: 2 * 6 directed channels.
  EXPECT_EQ(sg->channel_count(RunConfig{}), 12u);

  const WorkloadInfo* fir = find_workload("FIR");
  ASSERT_NE(fir, nullptr);
  ASSERT_NE(fir->channel_count, nullptr);
  EXPECT_EQ(fir->channel_count(RunConfig{}), 31u);
}

TEST(WorkloadRelations, VlBeatsBlfqOnPingPong) {
  RunConfig rc;
  rc.backend = Backend::kBlfq;
  const auto blfq = run("ping-pong", rc);
  rc.backend = Backend::kVl;
  const auto vl = run("ping-pong", rc);
  EXPECT_LT(vl.ns, blfq.ns);  // paper: 11.36x — here just require a win
}

TEST(WorkloadRelations, VlIdealAtLeastAsFastAsVl) {
  RunConfig rc;
  rc.backend = Backend::kVl;
  const auto vl = run("ping-pong", rc);
  rc.backend = Backend::kVlIdeal;
  const auto ideal = run("ping-pong", rc);
  EXPECT_LE(ideal.ns, vl.ns * 1.05);
}

TEST(WorkloadRelations, VlSnoopsFarBelowBlfq) {
  RunConfig rc;
  rc.backend = Backend::kBlfq;
  const auto blfq = run("ping-pong", rc);
  rc.backend = Backend::kVl;
  const auto vl = run("ping-pong", rc);
  EXPECT_LT(vl.mem.snoops * 5, blfq.mem.snoops);
}

TEST(WorkloadRelations, BlfqSpillsToDramOnIncastVlDoesNot) {
  RunConfig rc;
  rc.scale = 1;
  rc.backend = Backend::kBlfq;
  const auto blfq = run("incast", rc);
  rc.backend = Backend::kVl;
  const auto vl = run("incast", rc);
  EXPECT_GT(blfq.mem.mem_txns(), 2 * vl.mem.mem_txns());
}

TEST(WorkloadRelations, FirContextSwitchesCauseInjectRetries) {
  RunConfig rc;
  rc.backend = Backend::kVl;
  const auto vl = run("FIR", rc);
  // Two threads per core -> frequent pushable-bit clears -> retries.
  EXPECT_GT(vl.vlrd.inject_retry, 0u);
}

TEST(WorkloadRelations, BitonicScalesWithWorkersUnderVl) {
  // Fig. 12's claim: as workers grow, the queue mechanism decides the
  // sort time — VL's synchronization cost grows far slower than the
  // shared-memory queues'. (The kernel itself is communication-bound at
  // this size, so absolute time does not shrink with workers under any
  // backend; the relation is between mechanisms.)
  auto time_at = [](Backend b, int workers) {
    RunConfig rc;
    rc.backend = b;
    rc.scale = 2;
    rc.bitonic_workers = workers;
    return run("bitonic", rc).ns;
  };
  const double vl1 = time_at(Backend::kVl, 1);
  const double vl7 = time_at(Backend::kVl, 7);
  const double blfq1 = time_at(Backend::kBlfq, 1);
  const double blfq7 = time_at(Backend::kBlfq, 7);
  EXPECT_LT(vl7, blfq7);                  // VL wins outright at 7 workers
  EXPECT_LT(vl7 / vl1, blfq7 / blfq1);    // and degrades less from 1 -> 7
}

TEST(WorkloadRelations, Fig12AbsoluteSpeedupNearPaperCurve) {
  // Fig. 12 calibration: with the per-comparison cost set to
  // kFig12CompareCost, VL's *absolute* speedup over the BLFQ/1-worker
  // baseline should land near the paper's curve — rising from ~1.9x at 4
  // threads to ~2.8x at 8 threads. Generous tolerances: this asserts the
  // curve's position and rise, not simulator-exact values.
  auto time_at = [](Backend b, int workers) {
    RunConfig rc;
    rc.backend = b;
    rc.scale = 2;
    rc.bitonic_workers = workers;
    rc.bitonic_compare_cost = kFig12CompareCost;
    return run("bitonic", rc).ns;
  };
  const double base = time_at(Backend::kBlfq, 1);
  const double s3 = base / time_at(Backend::kVl, 3);
  const double s7 = base / time_at(Backend::kVl, 7);
  EXPECT_NEAR(s3, 1.9, 0.45);
  EXPECT_NEAR(s7, 2.8, 0.45);
  EXPECT_GT(s7, s3);  // still gaining at 8 threads, as in the paper
}

TEST(WorkloadRelations, Fig11HeadlineVlBeatsBlfqAndCutsMemoryTraffic) {
  // Fig. 11's direction at the bench's scale: VL64 beats BLFQ on all seven
  // Table II kernels, and the average memory-traffic reduction lands
  // within 5 points of the paper's 61%.
  double reduction_pct = 0;
  for (const char* name : {"ping-pong", "halo", "sweep", "incast", "FIR",
                           "bitonic", "pipeline"}) {
    RunConfig rc = default_config(name);
    rc.backend = Backend::kBlfq;
    const auto blfq = run(name, rc);
    rc.backend = Backend::kVl;
    const auto vl = run(name, rc);
    EXPECT_LT(vl.ns, blfq.ns) << name;
    ASSERT_GT(blfq.mem.mem_txns(), 0u) << name;
    reduction_pct += 100.0 / 7 *
                     (1.0 - static_cast<double>(vl.mem.mem_txns()) /
                                static_cast<double>(blfq.mem.mem_txns()));
  }
  EXPECT_NEAR(reduction_pct, 61.0, 5.0);
}

TEST(WorkloadRelations, VlWinsCollectives) {
  // The bsp collectives are hop-latency-bound, so VL's advantage carries
  // over from the paper's halo/bitonic columns.
  for (const char* name :
       {"allreduce", "scatter-gather", "stencil", "param-server"}) {
    RunConfig rc;
    rc.scale = 1;
    rc.backend = Backend::kBlfq;
    const auto blfq = run(name, rc);
    rc.backend = Backend::kVl;
    const auto vl = run(name, rc);
    EXPECT_LT(vl.ns, blfq.ns) << name;
  }
}

TEST(WorkloadRelations, CafSlowerThanVlOnLineSizedPingPong) {
  // Fig. 15: 64 B messages cost CAF ~7 register trips vs one VL line push.
  runtime::Machine mc(squeue::config_for(Backend::kCaf));
  squeue::ChannelFactory fc(mc, Backend::kCaf);
  const auto caf = run_pingpong(mc, fc, 1, /*msg_words=*/7);

  runtime::Machine mv(squeue::config_for(Backend::kVl));
  squeue::ChannelFactory fv(mv, Backend::kVl);
  const auto vl = run_pingpong(mv, fv, 1, /*msg_words=*/7);
  EXPECT_LT(vl.ns, caf.ns);
}

}  // namespace
}  // namespace vl::workloads
