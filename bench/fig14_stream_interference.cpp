// Fig. 14 — coherence-traffic interference: STREAM (memory-bound bystander)
// alone vs co-scheduled with a ping-pong pair using BLFQ / ZMQ / VL.
// Paper result: every queue perturbs STREAM's execution time by <= 2%;
// VL's added snoop traffic is comparable to BLFQ and far below ZMQ.

#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace vl;
  using squeue::Backend;
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Figure 14",
                          "STREAM alone vs STREAM + ping-pong per backend");

  const auto alone =
      workloads::run_stream_interference(Backend::kVl, false, scale);

  TextTable t({"configuration", "STREAM time (us)", "vs alone", "snoops",
               "mem txns", "pingpong msgs"});
  t.add_row({"STREAM (alone)", TextTable::num(alone.stream.ns / 1000.0, 1),
             "1.000", std::to_string(alone.stream.mem.snoops),
             std::to_string(alone.stream.mem.mem_txns()), "0"});

  for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl}) {
    const auto r = workloads::run_stream_interference(b, true, scale);
    t.add_row({std::string("STREAM + pingpong(") + squeue::to_string(b) + ")",
               TextTable::num(r.stream.ns / 1000.0, 1),
               TextTable::num(r.stream.ns / alone.stream.ns, 3),
               std::to_string(r.stream.mem.snoops),
               std::to_string(r.stream.mem.mem_txns()),
               std::to_string(r.pingpong_msgs)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Expected shape: STREAM time varies by only a few percent in "
              "all configurations; ZMQ adds the most snoop traffic, VL's is "
              "comparable to BLFQ's.\n");
  return 0;
}
