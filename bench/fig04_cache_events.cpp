// Fig. 4 — Cache events per BLFQ push as producers grow: invalidations
// (red/top line in the paper) and shared->exclusive upgrades (blue/bottom).
// The paper measured these with perf counters on Platform 2; here the MESI
// model counts the same two events. Also prints the Fig. 3-style state
// trace of one lock line bouncing across three cores.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "runtime/machine.hpp"
#include "squeue/blfq.hpp"

namespace {

using namespace vl;

struct Events {
  double invalidations_per_push;
  double upgrades_per_push;
  double snoops_per_push;
};

Events measure(int producers, int per_producer) {
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
  const auto& st = m.mem().stats();
  const double pushes = static_cast<double>(producers) * per_producer;
  return {static_cast<double>(st.invalidations) / pushes,
          static_cast<double>(st.upgrades) / pushes,
          static_cast<double>(st.snoops) / pushes};
}

void fig3_trace() {
  std::printf("\n-- Fig. 3 companion: one atomic line on 3 cores --\n");
  runtime::Machine m;
  m.mem().set_trace([&](Tick tick, CoreId c, Addr, const char* what) {
    std::printf("  t=%-6llu core%u %s\n",
                static_cast<unsigned long long>(tick), c, what);
  });
  const Addr lock = m.alloc(kLineSize);
  for (CoreId c = 0; c < 3; ++c) {
    sim::spawn([](sim::SimThread t, Addr a) -> sim::Co<void> {
      for (int i = 0; i < 2; ++i) co_await t.fetch_add64(a, 1);
    }(m.thread_on(c), lock));
  }
  m.run();
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header(
      "Figure 4", "cache events per BLFQ push vs producer count");

  TextTable t({"producers", "invalidations/push", "S->E upgrades/push",
               "snoops/push"});
  for (int p : {1, 2, 4, 6, 8, 10, 12, 15}) {
    const Events e = measure(p, 150 * scale);
    t.add_row({std::to_string(p), TextTable::num(e.invalidations_per_push, 2),
               TextTable::num(e.upgrades_per_push, 2),
               TextTable::num(e.snoops_per_push, 2)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nExpected shape: both event rates grow with the number of "
              "sharers; invalidations sit above upgrades.\n");

  fig3_trace();
  return 0;
}
