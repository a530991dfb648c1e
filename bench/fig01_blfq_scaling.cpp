// Fig. 1 — Scaling of a Boost-lock-free-style queue: time per push as the
// number of producers feeding one consumer grows, against the latency floor
// of an unsynchronized cache-line transfer (dashed line in the paper).
//
// Two reproductions:
//  (a) native host threads: real MpmcQueue + real line-handoff floor
//      (Platform-IV-style measurement; absolute values depend on the host);
//  (b) the simulator: SimBlfq M:1 on the Table III machine, where the
//      cost growth comes from modelled invalidations/upgrades.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "native/harness.hpp"
#include "runtime/machine.hpp"
#include "squeue/blfq.hpp"

namespace {

using namespace vl;

double sim_ns_per_push(int producers, int per_producer) {
  runtime::Machine m;
  squeue::SimBlfq q(m, 4096);
  for (int p = 0; p < producers; ++p) {
    sim::spawn([](squeue::Channel& q, sim::SimThread t, int n) -> sim::Co<void> {
      for (int i = 0; i < n; ++i) co_await q.send1(t, i);
    }(q, m.thread_on(static_cast<CoreId>(p)), per_producer));
  }
  sim::spawn([](squeue::Channel& q, sim::SimThread t, int n) -> sim::Co<void> {
    for (int i = 0; i < n; ++i) (void)co_await q.recv1(t);
  }(q, m.thread_on(15), producers * per_producer));
  m.run();
  return m.ns(m.now()) / static_cast<double>(producers * per_producer);
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Figure 1",
                          "BLFQ time-per-push vs producer count, and the "
                          "unsynchronized line-transfer floor");

  const double floor_ns = native::line_transfer_floor_ns(50000u * scale);
  std::printf("\nUnsynchronized line transfer floor (native): %.1f ns "
              "(paper: ~22-34 ns on Platform 1)\n\n",
              floor_ns);

  TextTable t({"producers", "native ns/push", "router ns/push",
               "sim ns/push", "sim/floor ratio"});
  for (int p : {1, 2, 4, 8, 12, 15}) {
    const auto nat = native::mpmc_push_scaling(p, 20000u * scale);
    const auto rtr = native::router_push_scaling(p, 20000u * scale);
    const double sim = sim_ns_per_push(p, 150 * scale);
    t.add_row({std::to_string(p), TextTable::num(nat.ns_per_push, 1),
               TextTable::num(rtr.ns_per_push, 1), TextTable::num(sim, 1),
               TextTable::num(sim / floor_ns, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected shape: MPMC ns/push rises with producer count and sits\n"
      "well above the unsynchronized floor; the endpoint-router series\n"
      "(software VL topology: private SPSC rings + router thread) stays\n"
      "flat until the router saturates — the asymptote VL's hardware\n"
      "router removes.\n");
  return 0;
}
