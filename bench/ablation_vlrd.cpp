// Ablation sweeps for the VLRD design choices DESIGN.md calls out:
//   1. buffer depth (8..256 entries) under incast pressure — how much
//      device buffering the back-pressure mechanism needs;
//   2. device round-trip latency — sensitivity of ping-pong to the
//      ~14-cycle bound § III-B cites;
//   3. message batching (1 vs 7 dwords per line) — the Fig. 10 control
//      region lets small messages share one line push.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace vl;

double incast_ns(std::uint32_t entries, int scale) {
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = entries;
  cfg.vlrd.cons_entries = entries;
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  return workloads::run_incast(m, f, scale).ns;
}

double pingpong_ns_with_latency(Tick device_lat, Tick inject_lat, int scale) {
  sim::SystemConfig cfg;
  cfg.vlrd.device_lat = device_lat;
  cfg.vlrd.inject_lat = inject_lat;
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  return workloads::run_pingpong(m, f, scale).ns;
}

double pingpong_ns_batched(int words, int scale) {
  runtime::Machine m{squeue::config_for(squeue::Backend::kVl)};
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  const auto r = workloads::run_pingpong(m, f, scale, words);
  return r.ns / static_cast<double>(r.messages * words);  // ns per dword
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Ablation", "VLRD design-choice sweeps");

  std::printf("\n-- 1. prodBuf/consBuf depth under incast (back-pressure) --\n");
  TextTable t1({"entries", "incast ns", "vs 64-entry"});
  const double base64 = incast_ns(64, scale);
  for (std::uint32_t n : {8u, 16u, 32u, 64u, 128u, 256u}) {
    const double ns = incast_ns(n, scale);
    t1.add_row({std::to_string(n), TextTable::num(ns, 0),
                TextTable::num(ns / base64, 3)});
  }
  std::printf("%s", t1.render().c_str());

  std::printf("\n-- 2. device round-trip latency (ping-pong sensitivity) --\n");
  TextTable t2({"device_lat (cyc)", "inject_lat (cyc)", "pingpong ns"});
  for (Tick d : {0u, 7u, 14u, 28u, 56u}) {
    const Tick inj = d * 24 / 14;
    t2.add_row({std::to_string(d), std::to_string(inj),
                TextTable::num(pingpong_ns_with_latency(d, inj, scale), 0)});
  }
  std::printf("%s", t2.render().c_str());

  std::printf("\n-- 3. control-region batching (ns per dword moved) --\n");
  TextTable t3({"dwords/line", "ns per dword"});
  for (int w : {1, 2, 4, 7}) {
    t3.add_row({std::to_string(w),
                TextTable::num(pingpong_ns_batched(w, scale), 2)});
  }
  std::printf("%s\n", t3.render().c_str());
  std::printf("Expected shapes: deeper buffers help incast until the "
              "consumer is the bottleneck; ping-pong degrades linearly with "
              "device latency; batching amortizes the push cost per dword.\n");
  return 0;
}
