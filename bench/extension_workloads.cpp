// Extension workloads (allreduce, scatter-gather, stencil, param-server)
// across all queue backends — the Fig. 11 format applied to collective
// patterns the Ember suite motivates but the paper did not evaluate. All
// are latency-bound at fine grain (allreduce's critical path is 2·log2 N
// hops; the others fork/join every superstep), so the expected shape
// matches Fig. 11's halo/bitonic columns: VL ahead, ZMQ trailing BLFQ.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace vl;
  using squeue::Backend;
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Extension workloads",
                          "bsp-native collectives across backends");

  for (const char* name :
       {"allreduce", "scatter-gather", "stencil", "param-server"}) {
    std::printf("\n-- %s --\n", name);
    TextTable t({"backend", "exec ns", "vs BLFQ", "ns/msg", "snoops",
                 "mem txns"});
    double blfq_ns = 0;
    for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                      Backend::kVlIdeal, Backend::kCaf}) {
      workloads::RunConfig rc = workloads::default_config(name);
      rc.backend = b;
      rc.scale = scale;
      const auto r = workloads::run(name, rc);
      if (b == Backend::kBlfq) blfq_ns = r.ns;
      t.add_row({squeue::to_string(b), TextTable::num(r.ns, 0),
                 TextTable::num(blfq_ns / r.ns, 2) + "x",
                 TextTable::num(r.ns_per_msg(), 1),
                 std::to_string(r.mem.snoops),
                 std::to_string(r.mem.mem_txns())});
    }
    std::printf("%s", t.render().c_str());
  }
  std::printf(
      "\nExpected shapes: both patterns are hop-latency-bound, so the\n"
      "ordering follows Fig. 11's halo/bitonic columns — VL(ideal) >= VL >\n"
      "BLFQ, with ZMQ's per-op software overhead costing it the most.\n");
  return 0;
}
