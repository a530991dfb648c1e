// Indirect-buffer (bulk payload) bench — the § III-D extension this repo
// implements in full. A 2-stage pipeline moves fixed-size payloads by
// descriptor over each queue backend, sweeping payload size, and compares
// the two region-recycling strategies (shared-CAS Treiber free list vs a
// channel-recycled free list) on coherence traffic.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "indirect/indirect.hpp"
#include "squeue/factory.hpp"

namespace {

using namespace vl;
using indirect::ChannelRegionPool;
using indirect::IndirectChannel;
using indirect::PoolBase;
using indirect::RegionPool;
using runtime::Machine;
using sim::Co;
using sim::SimThread;
using sim::spawn;
using squeue::Backend;

struct Result {
  double ns_per_payload = 0;
  std::uint64_t snoops = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t dram = 0;
};

constexpr int kProducers = 2;
constexpr int kConsumers = 2;

Result run_bulk(Backend backend, std::size_t payload_bytes, int payloads,
                bool channel_pool) {
  Machine m(squeue::config_for(backend));
  squeue::ChannelFactory f(m, backend);
  auto data_ch = f.make("data", 32, 2);
  std::unique_ptr<squeue::Channel> free_ch;
  std::unique_ptr<PoolBase> pool;
  constexpr std::uint32_t kRegions = 16;
  if (channel_pool) {
    free_ch = f.make("freelist", 2 * kRegions, 1);
    auto cp =
        std::make_unique<ChannelRegionPool>(m, *free_ch, payload_bytes,
                                            kRegions);
    spawn(cp->seed(m.thread_on(15)));
    pool = std::move(cp);
  } else {
    pool = std::make_unique<RegionPool>(m, payload_bytes, kRegions);
  }
  IndirectChannel ic(m, *data_ch, *pool);

  const int per_prod = payloads / kProducers;
  const int per_cons = payloads / kConsumers;
  std::vector<std::uint8_t> payload(payload_bytes, 0xa5);
  for (int p = 0; p < kProducers; ++p) {
    spawn([](IndirectChannel& ic, SimThread t, int n,
             const std::vector<std::uint8_t>* payload) -> Co<void> {
      for (int i = 0; i < n; ++i) co_await ic.send_bytes(t, *payload);
    }(ic, m.thread_on(static_cast<CoreId>(p)), per_prod, &payload));
  }
  for (int c = 0; c < kConsumers; ++c) {
    spawn([](IndirectChannel& ic, SimThread t, int n) -> Co<void> {
      for (int i = 0; i < n; ++i) (void)co_await ic.recv_bytes(t);
    }(ic, m.thread_on(static_cast<CoreId>(4 + c)), per_cons));
  }
  m.run();
  const auto& ms = m.mem().stats();
  Result r;
  r.ns_per_payload = m.ns(m.now()) / payloads;
  r.snoops = ms.snoops;
  r.upgrades = ms.upgrades;
  r.dram = ms.dram_reads + ms.dram_writes;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  const int payloads = 32 * scale;
  vl::bench::print_header("Indirect buffers (§ III-D extension)",
                          "bulk payloads by descriptor, 2:2 pipeline");

  std::printf("\n-- payload-size sweep, ns/payload (Treiber pool) --\n");
  TextTable t1({"bytes", "BLFQ", "ZMQ", "VL", "CAF"});
  for (std::size_t bytes : {256u, 1024u, 2048u, 4096u}) {
    t1.add_row({std::to_string(bytes),
                TextTable::num(run_bulk(Backend::kBlfq, bytes, payloads,
                                        false).ns_per_payload, 0),
                TextTable::num(run_bulk(Backend::kZmq, bytes, payloads,
                                        false).ns_per_payload, 0),
                TextTable::num(run_bulk(Backend::kVl, bytes, payloads,
                                        false).ns_per_payload, 0),
                TextTable::num(run_bulk(Backend::kCaf, bytes, payloads,
                                        false).ns_per_payload, 0)});
  }
  std::printf("%s", t1.render().c_str());

  std::printf("\n-- recycle strategy on VL, 2 KiB payloads --\n");
  TextTable t2({"free list", "ns/payload", "snoops", "upgrades", "DRAM"});
  const Result treiber = run_bulk(Backend::kVl, 2048, payloads, false);
  const Result chan = run_bulk(Backend::kVl, 2048, payloads, true);
  t2.add_row({"shared CAS (Treiber)",
              TextTable::num(treiber.ns_per_payload, 0),
              std::to_string(treiber.snoops), std::to_string(treiber.upgrades),
              std::to_string(treiber.dram)});
  t2.add_row({"VL channel-recycled", TextTable::num(chan.ns_per_payload, 0),
              std::to_string(chan.snoops), std::to_string(chan.upgrades),
              std::to_string(chan.dram)});
  std::printf("%s\n", t2.render().c_str());

  std::printf(
      "Expected shapes: descriptor cost is amortized as payloads grow, so\n"
      "backends converge at large sizes with VL ahead on small/medium\n"
      "payloads; the channel-recycled free list removes the shared CAS\n"
      "word, cutting upgrade/invalidation traffic like the paper's zero-\n"
      "shared-state argument predicts.\n");
  return 0;
}
