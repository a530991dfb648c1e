// Fig. 15 — VL vs CAF (PACT'16 hardware queue) on the two benchmarks from
// the CAF paper: ping-pong (cache-line-sized data through the queue;
// paper: VL 2.40x) and pipeline (queues carry pointers to 2 KiB payloads;
// paper: VL 1.22x). CAF's register-granularity interface pays one device
// round trip per 64-bit word, where VL moves whole lines.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace vl;
  using squeue::Backend;
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Figure 15", "VL speedup over CAF");

  // ping-pong with 7-dword (56 B) messages: the line-sized payload case.
  runtime::Machine mc(squeue::config_for(Backend::kCaf));
  squeue::ChannelFactory fc(mc, Backend::kCaf);
  const auto caf_pp = workloads::run_pingpong(mc, fc, scale, /*msg_words=*/7);

  runtime::Machine mv(squeue::config_for(Backend::kVl));
  squeue::ChannelFactory fv(mv, Backend::kVl);
  const auto vl_pp = workloads::run_pingpong(mv, fv, scale, /*msg_words=*/7);

  // pipeline: pointer messages, 2 KiB payloads through memory.
  runtime::Machine mc2(squeue::config_for(Backend::kCaf));
  squeue::ChannelFactory fc2(mc2, Backend::kCaf);
  const auto caf_pipe = workloads::run_pipeline(mc2, fc2, scale);

  runtime::Machine mv2(squeue::config_for(Backend::kVl));
  squeue::ChannelFactory fv2(mv2, Backend::kVl);
  const auto vl_pipe = workloads::run_pipeline(mv2, fv2, scale);

  TextTable t({"benchmark", "CAF ns", "VL ns", "VL speedup", "paper"});
  t.add_row({"ping-pong", TextTable::num(caf_pp.ns, 0),
             TextTable::num(vl_pp.ns, 0),
             TextTable::num(caf_pp.ns / vl_pp.ns, 2), "2.40x"});
  t.add_row({"pipeline", TextTable::num(caf_pipe.ns, 0),
             TextTable::num(vl_pipe.ns, 0),
             TextTable::num(caf_pipe.ns / vl_pipe.ns, 2), "1.22x"});
  std::printf("%s\n", t.render().c_str());
  std::printf("Expected shape: VL wins big when payloads ride the queue "
              "(ping-pong), modestly when the queue only carries pointers "
              "(pipeline).\n");
  return 0;
}
