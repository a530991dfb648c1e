// Coherence-protocol ablation: MESI (the paper's gem5 baseline) vs MOESI.
//
// The software queues bounce dirty lines between producer and consumer
// cores; under MESI every read-snoop of a Modified line forces an LLC
// writeback, while MOESI's Owned state keeps the dirty line in the
// sourcing L1. This sweep quantifies how much of the software queues'
// memory traffic is protocol-induced — and shows that VL's advantage is
// *not* an artifact of the MESI baseline: VL barely moves between
// protocols because its transfers bypass shared coherent state entirely.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace vl;
using squeue::Backend;

struct Row {
  double ns;
  std::uint64_t writebacks;
  std::uint64_t mem_txns;
};

Row run_one(const workloads::WorkloadInfo& w, Backend b, sim::Protocol proto,
            int scale) {
  runtime::Machine m([&] {
    sim::SystemConfig cfg = squeue::config_for(b);
    cfg.cache.protocol = proto;
    return cfg;
  }());
  squeue::ChannelFactory f(m, b);
  workloads::RunConfig rc = w.defaults;
  rc.backend = b;
  rc.scale = scale;
  const workloads::WorkloadResult r = w.kernel(m, f, rc);
  return {r.ns, r.mem.writebacks, r.mem.mem_txns()};
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Ablation (protocol)",
                          "MESI vs MOESI under queue traffic");

  for (const char* name : {"ping-pong", "incast"}) {
    const workloads::WorkloadInfo* w = workloads::find_workload(name);
    if (!w) continue;
    std::printf("\n-- %s --\n", name);
    TextTable t({"backend", "MESI ns", "MOESI ns", "speedup",
                 "MESI wbacks", "MOESI wbacks"});
    for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl}) {
      const Row mesi = run_one(*w, b, sim::Protocol::kMesi, scale);
      const Row moesi = run_one(*w, b, sim::Protocol::kMoesi, scale);
      t.add_row({squeue::to_string(b), TextTable::num(mesi.ns, 0),
                 TextTable::num(moesi.ns, 0),
                 TextTable::num(mesi.ns / moesi.ns, 3) + "x",
                 std::to_string(mesi.writebacks),
                 std::to_string(moesi.writebacks)});
    }
    std::printf("%s", t.render().c_str());
  }
  std::printf(
      "\nExpected shapes: MOESI trims the software queues' writebacks\n"
      "(dirty queue lines stay in L1s), narrowing but not closing the gap\n"
      "to VL; VL itself is nearly protocol-invariant because its data path\n"
      "touches no shared coherent state.\n");
  return 0;
}
