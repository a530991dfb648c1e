// Ablation sweeps for the paper's optional/extension design points built in
// this repo (DESIGN.md "extensions"):
//   1. multi-VLRD scaling (§ III-C2, Fig. 9 bits J:N+1): many-channel
//      workloads across 1/2/4 routing devices;
//   2. addressing scheme (§ III-C2): Fig. 9 bit-field vs CAM address table —
//      per-op latency against PA-window consumption;
//   3. buffer management (§ III-A trade-off 2): linked lists vs bitvector
//      scan as the VLRD buffers grow.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "runtime/supervisor.hpp"
#include "vlrd/addr_table.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace vl;

double halo_ns_devices(std::uint32_t devices, int scale) {
  sim::SystemConfig cfg = sim::SystemConfig::table3_multi(devices);
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  return workloads::run_halo(m, f, scale).ns;
}

double sweep_ns_devices(std::uint32_t devices, int scale) {
  sim::SystemConfig cfg = sim::SystemConfig::table3_multi(devices);
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  return workloads::run_sweep(m, f, scale).ns;
}

double pingpong_ns_addressing(sim::Addressing mode, int scale) {
  sim::SystemConfig cfg;
  cfg.vlrd.addressing = mode;
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  return workloads::run_pingpong(m, f, scale).ns;
}

double incast_ns_mgmt(sim::BufferMgmt mgmt, std::uint32_t entries, int scale) {
  sim::SystemConfig cfg;
  cfg.vlrd.buffer_mgmt = mgmt;
  cfg.vlrd.prod_entries = entries;
  cfg.vlrd.cons_entries = entries;
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  return workloads::run_incast(m, f, scale).ns;
}

struct CoupledResult {
  double ns;
  std::uint64_t nacks;
};

CoupledResult incast_coupled(bool coupled, int scale) {
  sim::SystemConfig cfg;
  cfg.vlrd.coupled_io = coupled;
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  const double ns = workloads::run_incast(m, f, scale).ns;
  const auto vs = m.vlrd_stats();
  return {ns, vs.push_nacks + vs.fetch_nacks};
}

// QoS isolation: a hog pair floods SQI "hog" while a light pair trickles
// on SQI "victim"; report the victim's completion time with the paper's
// shared buffer vs a CAF-style per-SQI quota.
double victim_ns(std::uint32_t quota, int scale) {
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 16;  // small shared buffer: contention matters
  cfg.vlrd.per_sqi_quota = quota;
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, squeue::Backend::kVl);
  auto hog = f.make("hog", 0, 1);
  auto victim = f.make("victim", 0, 1);
  using sim::Co;
  using sim::SimThread;
  // Hog: 2 fast producers, 1 slow consumer -> occupancy pressure.
  for (int p = 0; p < 2; ++p) {
    sim::spawn([](squeue::Channel& ch, SimThread t, int n) -> Co<void> {
      for (int i = 0; i < n; ++i) co_await ch.send1(t, i);
    }(*hog, m.thread_on(static_cast<CoreId>(p)), 300 * scale));
  }
  sim::spawn([](squeue::Channel& ch, SimThread t, int n) -> Co<void> {
    for (int i = 0; i < n; ++i) {
      (void)co_await ch.recv1(t);
      co_await t.compute(500);  // slow drain keeps the buffer full
    }
  }(*hog, m.thread_on(8), 600 * scale));
  // Victim: light 1:1 traffic; measure when it finishes.
  Tick victim_done = 0;
  sim::spawn([](squeue::Channel& ch, SimThread t, int n) -> Co<void> {
    for (int i = 0; i < n; ++i) {
      co_await ch.send1(t, i);
      co_await t.compute(200);
    }
  }(*victim, m.thread_on(4), 50 * scale));
  sim::spawn([](squeue::Channel& ch, SimThread t, int n,
                Tick* done) -> Co<void> {
    for (int i = 0; i < n; ++i) (void)co_await ch.recv1(t);
    *done = t.core->eq().now();
  }(*victim, m.thread_on(12), 50 * scale, &victim_done));
  m.run();
  return m.ns(victim_done);
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Ablation (extensions)",
                          "multi-VLRD / addressing / buffer management");

  std::printf("\n-- 1. routing devices vs many-channel workloads (VL) --\n");
  TextTable t1({"devices", "halo ns", "vs 1 dev", "sweep ns", "vs 1 dev"});
  const double halo1 = halo_ns_devices(1, scale);
  const double sweep1 = sweep_ns_devices(1, scale);
  for (std::uint32_t d : {1u, 2u, 4u}) {
    const double h = halo_ns_devices(d, scale);
    const double s = sweep_ns_devices(d, scale);
    t1.add_row({std::to_string(d), TextTable::num(h, 0),
                TextTable::num(h / halo1, 3), TextTable::num(s, 0),
                TextTable::num(s / sweep1, 3)});
  }
  std::printf("%s", t1.render().c_str());

  std::printf("\n-- 2. addressing scheme: latency vs PA window --\n");
  TextTable t2({"scheme", "pingpong ns", "PA window (per dev)"});
  const double bf = pingpong_ns_addressing(sim::Addressing::kBitField, scale);
  const double at = pingpong_ns_addressing(sim::Addressing::kAddrTable, scale);
  t2.add_row({"bit-field (Fig. 9)", TextTable::num(bf, 0),
              TextTable::num(static_cast<double>(
                                 vlrd::AddrTable::bitfield_window_bytes()) /
                                 (1024.0 * 1024.0),
                             1) +
                  " MiB reserved"});
  t2.add_row({"addr table (CAM)", TextTable::num(at, 0),
              "4 KiB per mapped page"});
  std::printf("%s", t2.render().c_str());

  std::printf("\n-- 3. buffer management vs VLRD size (incast, VL) --\n");
  TextTable t3({"entries", "linked-list ns", "bitvector ns", "bv/ll"});
  for (std::uint32_t n : {64u, 128u, 256u, 512u, 1024u}) {
    const double ll = incast_ns_mgmt(sim::BufferMgmt::kLinkedList, n, scale);
    const double bv = incast_ns_mgmt(sim::BufferMgmt::kBitvector, n, scale);
    t3.add_row({std::to_string(n), TextTable::num(ll, 0),
                TextTable::num(bv, 0), TextTable::num(bv / ll, 3)});
  }
  std::printf("%s", t3.render().c_str());

  std::printf("\n-- 4. bus/pipeline decoupling under incast bursts (VL) --\n");
  TextTable t4({"IN buffering", "incast ns", "device NACKs"});
  const CoupledResult dec = incast_coupled(false, scale);
  const CoupledResult cpl = incast_coupled(true, scale);
  t4.add_row({"decoupled (paper)", TextTable::num(dec.ns, 0),
              std::to_string(dec.nacks)});
  t4.add_row({"1 pkt/cycle (coupled)", TextTable::num(cpl.ns, 0),
              std::to_string(cpl.nacks)});
  std::printf("%s", t4.render().c_str());

  std::printf("\n-- 5. QoS: victim completion beside a hog queue (VL) --\n");
  TextTable t5({"per-SQI quota", "victim ns", "vs shared"});
  const double shared = victim_ns(0, scale);
  t5.add_row({"0 (shared, paper)", TextTable::num(shared, 0), "1.000"});
  for (std::uint32_t q : {4u, 8u}) {
    const double v = victim_ns(q, scale);
    t5.add_row({std::to_string(q), TextTable::num(v, 0),
                TextTable::num(v / shared, 3)});
  }
  std::printf("%s\n", t5.render().c_str());

  std::printf(
      "Expected shapes: extra devices help once one device's mapping\n"
      "pipeline saturates (many live channels); the CAM scheme costs a\n"
      "roughly constant extra latency per op but trades a fixed multi-MiB\n"
      "PA window for 4 KiB per page; the bitvector scan's penalty grows\n"
      "with buffer size — the paper's reason for choosing linked lists;\n"
      "coupling bus I/O to the pipeline floods incast with NACK/retry\n"
      "traffic — the paper's reason for the partitioned input buffers;\n"
      "a CAF-style per-SQI quota shields the victim queue from the hog\n"
      "at the cost of extra hog NACKs (the \u00a7 V QoS trade).\n");
  return 0;
}
