// Fig. 13 — snoop and upgrade events as bitonic scales: the
// microarchitectural explanation for Fig. 12. Software queues' shared
// state drives rapidly growing snoop/upgrade counts with thread count;
// VL stays near-flat.

#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace vl;
  using squeue::Backend;
  const int scale = vl::bench::parse_scale_flag(argc, argv, 2);
  vl::bench::print_header(
      "Figure 13", "bitonic snoops and S->E upgrades vs total threads");

  const std::vector<int> workers = {1, 3, 7, 15};
  const std::vector<Backend> backends = {Backend::kBlfq, Backend::kZmq,
                                         Backend::kVl};

  TextTable t({"total threads", "backend", "snoops", "upgrades",
               "snoops/msg"});
  for (Backend b : backends) {
    for (int w : workers) {
      workloads::RunConfig rc = workloads::default_config("bitonic");
      rc.backend = b;
      rc.scale = scale;
      rc.bitonic_workers = w;
      const auto r = run("bitonic", rc);
      t.add_row({std::to_string(w + 1), squeue::to_string(b),
                 std::to_string(r.mem.snoops), std::to_string(r.mem.upgrades),
                 TextTable::num(static_cast<double>(r.mem.snoops) /
                                    static_cast<double>(r.messages),
                                2)});
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Expected shape: BLFQ/ZMQ snoops+upgrades grow steeply with "
              "threads; VL's stay comparatively flat (array traffic only).\n");
  return 0;
}
