// Fig. 12 — bitonic scalability: fixed sorting workload split across 1, 3,
// 7, 15 workers (plus the master), for BLFQ / ZMQ / VL(ideal) / VL.
// Speedup is relative to BLFQ with one worker (2 total threads), matching
// the paper's presentation. Paper shape: ZMQ wins at 2-4 threads then
// collapses; BLFQ stops scaling at 4; VL keeps gaining to 8; at 16 the
// master's serial work dominates for everyone.

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace vl;
  using squeue::Backend;
  const int scale = vl::bench::parse_scale_flag(argc, argv, 2);
  vl::bench::print_header("Figure 12",
                          "bitonic speedup vs total threads (fixed work)");

  const std::vector<int> workers = {1, 3, 7, 15};
  const std::vector<Backend> backends = {Backend::kBlfq, Backend::kZmq,
                                         Backend::kVlIdeal, Backend::kVl};

  std::map<Backend, std::map<int, double>> ns;
  for (Backend b : backends) {
    for (int w : workers) {
      workloads::RunConfig rc = workloads::default_config("bitonic");
      rc.backend = b;
      rc.scale = scale;
      rc.bitonic_workers = w;
      rc.bitonic_compare_cost = workloads::kFig12CompareCost;
      ns[b][w] = run("bitonic", rc).ns;
      std::fprintf(stderr, "  done %-9s workers=%-2d %12.0f ns\n",
                   squeue::to_string(b), w, ns[b][w]);
    }
  }

  const double base = ns[Backend::kBlfq][1];
  TextTable t({"total threads", "BLFQ", "ZMQ", "VL(ideal)", "VL"});
  for (int w : workers) {
    t.add_row({std::to_string(w + 1),
               TextTable::num(base / ns[Backend::kBlfq][w], 2),
               TextTable::num(base / ns[Backend::kZmq][w], 2),
               TextTable::num(base / ns[Backend::kVlIdeal][w], 2),
               TextTable::num(base / ns[Backend::kVl][w], 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Expected shape: VL scales furthest; software queues flatten "
              "early; all saturate when the master dominates.\n");
  return 0;
}
