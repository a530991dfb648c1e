// One VL data path: a single message is a run of one, so a one-message
// send and a one-message send_many issue the same port transaction and
// must be indistinguishable to the receiver and to the routing device.

#include <gtest/gtest.h>

#include <array>

#include "runtime/machine.hpp"
#include "runtime/vl_queue.hpp"
#include "squeue/vl_channel.hpp"

namespace vl::squeue {
namespace {

using runtime::Machine;
using sim::Co;
using sim::SimThread;
using sim::spawn;

struct Delivery {
  Tick at = 0;
  Msg msg;
  vlrd::VlrdStats dev;
};

/// Send `backlog` single messages, then one probe message through
/// send_many (`many`) or send, and receive everything on another core.
Delivery deliver_probe(bool many, int backlog) {
  Machine m;
  runtime::VlQueueLib lib(m);
  VlChannel ch(lib, "probe_q");
  Delivery d;
  spawn([](VlChannel& q, SimThread t, bool many, int backlog) -> Co<void> {
    for (int i = 0; i < backlog; ++i)
      co_await q.send1(t, static_cast<std::uint64_t>(i));
    const Msg probe = Msg::words({7, 8, 9});
    if (many)
      co_await q.send_many(t, std::span<const Msg>(&probe, 1));
    else
      co_await q.send(t, probe);
  }(ch, m.thread_on(0), many, backlog));
  spawn([](VlChannel& q, SimThread t, Machine& m, int backlog,
           Delivery* d) -> Co<void> {
    for (int i = 0; i < backlog; ++i) (void)co_await q.recv(t);
    d->msg = co_await q.recv(t);
    d->at = m.now();
  }(ch, m.thread_on(1), m, backlog, &d));
  m.run();
  d.dev = m.vlrd_stats();
  return d;
}

TEST(VlDataPath, OneMessageSendManyMatchesSend) {
  for (int backlog : {0, 3}) {
    const Delivery one = deliver_probe(false, backlog);
    const Delivery run = deliver_probe(true, backlog);
    EXPECT_EQ(one.at, run.at) << "backlog " << backlog;
    EXPECT_EQ(one.msg, run.msg) << "backlog " << backlog;
    EXPECT_EQ(run.msg, Msg::words({7, 8, 9}));
    const auto counters = [](const vlrd::VlrdStats& s) {
      return std::array<std::uint64_t, 9>{
          s.pushes,  s.push_nacks, s.push_quota_nacks,
          s.fetches, s.fetch_nacks, s.matches,
          s.inject_ok, s.inject_retry, s.pipeline_cycles};
    };
    EXPECT_EQ(counters(one.dev), counters(run.dev)) << "backlog " << backlog;
    EXPECT_EQ(one.dev.pushes, static_cast<std::uint64_t>(backlog + 1));
  }
}

}  // namespace
}  // namespace vl::squeue
