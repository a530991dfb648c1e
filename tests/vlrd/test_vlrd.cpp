// Functional tests of the routing device: matching, ordering, back-pressure,
// rejection/retry, and the VL(ideal) reference model.

#include "vlrd/vlrd.hpp"

#include <gtest/gtest.h>

#include "mem/hierarchy.hpp"
#include "sim/core.hpp"

namespace vl::vlrd {
namespace {

mem::Line make_line(std::uint8_t fill) {
  mem::Line l{};
  l.fill(fill);
  return l;
}

struct VlrdFixture : ::testing::Test {
  sim::EventQueue eq;
  sim::CacheConfig ccfg;
  mem::Hierarchy hier{eq, 4, ccfg};
  sim::VlrdConfig vcfg;

  /// Prepare a consumer line: resident in `core`'s L1 with pushable set
  /// (what vl_select + vl_fetch do on the core side).
  void arm_consumer_line(CoreId core, Addr line) {
    hier.select_line(core, line);
    ASSERT_TRUE(hier.set_pushable(core, line, true));
  }
};

TEST_F(VlrdFixture, DataThenRequestMatches) {
  Vlrd dev(eq, hier, vcfg);
  ASSERT_TRUE(dev.push(/*sqi=*/1, make_line(0xaa)));
  eq.run();  // pipeline appends the data to SQI 1's list
  EXPECT_EQ(dev.queued_data(1), 1u);

  arm_consumer_line(2, 0x8000);
  ASSERT_TRUE(dev.fetch(1, 0x8000, 2));
  eq.run();
  EXPECT_EQ(dev.stats().matches, 1u);
  EXPECT_EQ(dev.stats().inject_ok, 1u);
  EXPECT_EQ(dev.queued_data(1), 0u);
  EXPECT_EQ(hier.backing().read(0x8000, 1), 0xaau);
  EXPECT_EQ(hier.l1_state(2, 0x8000), mem::Mesi::kExclusive);
}

TEST_F(VlrdFixture, RequestThenDataMatches) {
  Vlrd dev(eq, hier, vcfg);
  arm_consumer_line(3, 0x9000);
  ASSERT_TRUE(dev.fetch(5, 0x9000, 3));
  eq.run();
  EXPECT_EQ(dev.queued_requests(5), 1u);

  ASSERT_TRUE(dev.push(5, make_line(0xbb)));
  eq.run();
  EXPECT_EQ(dev.stats().inject_ok, 1u);
  EXPECT_EQ(hier.backing().read(0x9000, 1), 0xbbu);
}

TEST_F(VlrdFixture, FifoOrderPreservedPerSqi) {
  Vlrd dev(eq, hier, vcfg);
  for (std::uint8_t i = 1; i <= 5; ++i) ASSERT_TRUE(dev.push(7, make_line(i)));
  eq.run();
  EXPECT_EQ(dev.queued_data(7), 5u);

  for (std::uint8_t i = 1; i <= 5; ++i) {
    const Addr tgt = 0xa000 + static_cast<Addr>(i - 1) * kLineSize;
    arm_consumer_line(1, tgt);
    ASSERT_TRUE(dev.fetch(7, tgt, 1));
    eq.run();
    EXPECT_EQ(hier.backing().read(tgt, 1), i) << "message " << int(i);
  }
}

TEST_F(VlrdFixture, SqisAreIsolated) {
  Vlrd dev(eq, hier, vcfg);
  ASSERT_TRUE(dev.push(1, make_line(0x11)));
  ASSERT_TRUE(dev.push(2, make_line(0x22)));
  eq.run();

  arm_consumer_line(0, 0xb000);
  ASSERT_TRUE(dev.fetch(2, 0xb000, 0));  // ask SQI 2, must get 0x22
  eq.run();
  EXPECT_EQ(hier.backing().read(0xb000, 1), 0x22u);
  EXPECT_EQ(dev.queued_data(1), 1u);  // SQI 1 untouched
}

TEST_F(VlrdFixture, PushNacksWhenProdBufFull) {
  vcfg.prod_entries = 4;
  Vlrd dev(eq, hier, vcfg);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dev.push(1, make_line(1)));
  eq.run();  // all four now parked in the LINK list, slots still occupied
  EXPECT_FALSE(dev.push(1, make_line(2)));  // back-pressure
  EXPECT_EQ(dev.stats().push_nacks, 1u);

  // Draining one message frees a slot again.
  arm_consumer_line(1, 0xc000);
  ASSERT_TRUE(dev.fetch(1, 0xc000, 1));
  eq.run();
  EXPECT_TRUE(dev.push(1, make_line(3)));
}

TEST_F(VlrdFixture, FetchNacksWhenConsBufFull) {
  vcfg.cons_entries = 2;
  Vlrd dev(eq, hier, vcfg);
  arm_consumer_line(0, 0xd000);
  arm_consumer_line(0, 0xd040);
  arm_consumer_line(0, 0xd080);
  ASSERT_TRUE(dev.fetch(1, 0xd000, 0));
  ASSERT_TRUE(dev.fetch(1, 0xd040, 0));
  eq.run();
  EXPECT_FALSE(dev.fetch(1, 0xd080, 0));
  EXPECT_EQ(dev.stats().fetch_nacks, 1u);
}

TEST_F(VlrdFixture, FetchReissueIsIdempotent) {
  Vlrd dev(eq, hier, vcfg);
  arm_consumer_line(0, 0xe000);
  ASSERT_TRUE(dev.fetch(3, 0xe000, 0));
  eq.run();
  EXPECT_EQ(dev.queued_requests(3), 1u);
  // Same target re-issued (consumer recovery path): no duplicate entry.
  ASSERT_TRUE(dev.fetch(3, 0xe000, 0));
  eq.run();
  EXPECT_EQ(dev.queued_requests(3), 1u);
}

TEST_F(VlrdFixture, RejectedInjectionKeepsDataAndRedelivers) {
  Vlrd dev(eq, hier, vcfg);
  // Consumer registered demand but its pushable bit was cleared before the
  // stash landed (context switch): injection must be rejected and the data
  // retained by the VLRD.
  arm_consumer_line(2, 0xf000);
  ASSERT_TRUE(dev.fetch(4, 0xf000, 2));
  eq.run();
  hier.clear_pushable(2);  // context switch on core 2

  ASSERT_TRUE(dev.push(4, make_line(0x77)));
  eq.run();
  EXPECT_EQ(dev.stats().inject_retry, 1u);
  EXPECT_EQ(dev.stats().inject_ok, 0u);
  EXPECT_EQ(dev.queued_data(4), 1u);  // data stays with the VLRD
  EXPECT_EQ(hier.backing().read(0xf000, 1), 0u);

  // Consumer is rescheduled and re-issues the request (§ III-B).
  arm_consumer_line(2, 0xf000);
  ASSERT_TRUE(dev.fetch(4, 0xf000, 2));
  eq.run();
  EXPECT_EQ(dev.stats().inject_ok, 1u);
  EXPECT_EQ(hier.backing().read(0xf000, 1), 0x77u);
}

TEST_F(VlrdFixture, BuffersSharedAcrossSqis) {
  vcfg.prod_entries = 8;
  Vlrd dev(eq, hier, vcfg);
  // Interleave pushes on 4 SQIs; the shared buffer holds them all.
  for (int round = 0; round < 2; ++round)
    for (Sqi s = 0; s < 4; ++s)
      ASSERT_TRUE(dev.push(s, make_line(static_cast<std::uint8_t>(s * 16 + round))));
  eq.run();
  for (Sqi s = 0; s < 4; ++s) EXPECT_EQ(dev.queued_data(s), 2u);
  EXPECT_EQ(dev.prod_free_slots(), 0u);
}

TEST_F(VlrdFixture, ManyToOneIncastPattern) {
  Vlrd dev(eq, hier, vcfg);
  // 15 producers push to one SQI; one consumer drains 15 messages.
  for (int p = 0; p < 15; ++p)
    ASSERT_TRUE(dev.push(9, make_line(static_cast<std::uint8_t>(p + 1))));
  eq.run();
  std::uint64_t sum = 0;
  for (int i = 0; i < 15; ++i) {
    const Addr tgt = 0x20000 + static_cast<Addr>(i) * kLineSize;
    arm_consumer_line(0, tgt);
    ASSERT_TRUE(dev.fetch(9, tgt, 0));
    eq.run();
    sum += hier.backing().read(tgt, 1);
  }
  EXPECT_EQ(sum, 15u * 16u / 2u);
  EXPECT_EQ(dev.stats().inject_ok, 15u);
}

TEST_F(VlrdFixture, IdealModeNeverNacks) {
  auto icfg = sim::SystemConfig::table3_ideal();
  Vlrd dev(eq, hier, icfg.vlrd);
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(dev.push(1, make_line(1)));
  EXPECT_EQ(dev.stats().push_nacks, 0u);
  EXPECT_EQ(dev.queued_data(1), 10000u);
  // SQIs never pushed to or fetched from hold nothing; a fetch alone
  // creates its SQI's queues.
  EXPECT_EQ(dev.queued_data(2), 0u);
  EXPECT_EQ(dev.queued_requests(2), 0u);
  ASSERT_TRUE(dev.fetch(3, 0x50000, 0));
  EXPECT_EQ(dev.queued_requests(3), 1u);
  EXPECT_EQ(dev.queued_data(3), 0u);
  EXPECT_EQ(dev.snapshot_resident()[1].size(), 10000u);
  EXPECT_TRUE(dev.snapshot_resident()[2].empty());
}

TEST_F(VlrdFixture, IdealModeDeliversInOrder) {
  auto icfg = sim::SystemConfig::table3_ideal();
  Vlrd dev(eq, hier, icfg.vlrd);
  for (std::uint8_t i = 1; i <= 3; ++i) dev.push(2, make_line(i));
  for (std::uint8_t i = 1; i <= 3; ++i) {
    const Addr tgt = 0x30000 + static_cast<Addr>(i) * kLineSize;
    arm_consumer_line(1, tgt);
    dev.fetch(2, tgt, 1);
    eq.run();
    EXPECT_EQ(hier.backing().read(tgt, 1), i);
  }
}

TEST_F(VlrdFixture, FreeSlotSearchRotates) {
  vcfg.prod_entries = 4;
  Vlrd dev(eq, hier, vcfg);
  // Fill, drain one, refill: the freed slot must be found again (PIFR wraps).
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dev.push(1, make_line(1)));
  eq.run();
  arm_consumer_line(0, 0x40000);
  ASSERT_TRUE(dev.fetch(1, 0x40000, 0));
  eq.run();
  ASSERT_TRUE(dev.push(1, make_line(2)));
  eq.run();
  EXPECT_FALSE(dev.push(1, make_line(3)));
}

TEST_F(VlrdFixture, CoupledIoBouncesBursts) {
  // § III-A trade-off 1: without the decoupling IN partitions the device
  // accepts one packet per cycle — a back-to-back burst gets NACKed while
  // the mapping pipeline is busy with the first packet.
  vcfg.coupled_io = true;
  Vlrd dev(eq, hier, vcfg);
  ASSERT_TRUE(dev.push(1, make_line(1)));   // accepted: pipeline idle
  EXPECT_FALSE(dev.push(1, make_line(2)));  // same-burst arrival: bounced
  EXPECT_EQ(dev.stats().push_nacks, 1u);
  eq.run();  // pipeline drains the first packet
  EXPECT_TRUE(dev.push(1, make_line(3)));   // accepted again
}

TEST_F(VlrdFixture, DecoupledIoAbsorbsBursts) {
  // Default (paper) design: the same burst is buffered, no NACKs.
  Vlrd dev(eq, hier, vcfg);
  ASSERT_TRUE(dev.push(1, make_line(1)));
  ASSERT_TRUE(dev.push(1, make_line(2)));
  ASSERT_TRUE(dev.push(1, make_line(3)));
  EXPECT_EQ(dev.stats().push_nacks, 0u);
  eq.run();
  EXPECT_EQ(dev.queued_data(1), 3u);
}

TEST_F(VlrdFixture, CoupledIoBouncesFetchBursts) {
  vcfg.coupled_io = true;
  Vlrd dev(eq, hier, vcfg);
  arm_consumer_line(0, 0x50000);
  arm_consumer_line(1, 0x51000);
  ASSERT_TRUE(dev.fetch(1, 0x50000, 0));
  EXPECT_FALSE(dev.fetch(1, 0x51000, 1));
  EXPECT_EQ(dev.stats().fetch_nacks, 1u);
  eq.run();
  EXPECT_TRUE(dev.fetch(1, 0x51000, 1));
}

TEST_F(VlrdFixture, PerSqiQuotaBoundsAHogQueue) {
  // § V CAF contrast: with a quota, a hog SQI cannot monopolize prodBuf —
  // it NACKs at its credit limit while another SQI still gets slots.
  vcfg.per_sqi_quota = 3;
  vcfg.prod_entries = 8;
  Vlrd dev(eq, hier, vcfg);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(dev.push(/*sqi=*/1, make_line(1))) << i;
  EXPECT_FALSE(dev.push(1, make_line(1)));  // hog at quota
  EXPECT_TRUE(dev.push(2, make_line(2)));   // victim unaffected
  EXPECT_EQ(dev.stats().push_nacks, 1u);
}

TEST_F(VlrdFixture, QuotaCreditReturnsOnDelivery) {
  vcfg.per_sqi_quota = 1;
  Vlrd dev(eq, hier, vcfg);
  ASSERT_TRUE(dev.push(1, make_line(0x11)));
  EXPECT_FALSE(dev.push(1, make_line(0x22)));  // credit exhausted
  arm_consumer_line(0, 0x60000);
  ASSERT_TRUE(dev.fetch(1, 0x60000, 0));
  eq.run();  // match + inject returns the credit
  EXPECT_EQ(hier.backing().read(0x60000, 1), 0x11u);
  EXPECT_TRUE(dev.push(1, make_line(0x22)));  // credit back
}

TEST_F(VlrdFixture, SharedBufferLetsHogStarveVictim) {
  // The paper's shared design (quota = 0): the hog can take every slot.
  vcfg.prod_entries = 4;
  Vlrd dev(eq, hier, vcfg);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dev.push(1, make_line(1)));
  EXPECT_FALSE(dev.push(2, make_line(2)));  // victim NACKed too
}

/// A line whose Fig. 10 control byte tags it with a service class.
mem::Line classed_line(QosClass cls, std::uint8_t fill = 0x5a) {
  mem::Line l{};
  l.fill(fill);
  l[kLineCtrlOffset] = static_cast<std::uint8_t>(cls);
  return l;
}

TEST_F(VlrdFixture, ClassQuotaBoundsBulkWithinAnSqi) {
  // QoS partitioning inside one SQI: bulk is NACKed at its class quota
  // while latency traffic on the *same* SQI keeps enqueueing, and the NACK
  // reports as a quota (park-per-SQI) rather than a full buffer.
  vcfg.class_quota[static_cast<std::size_t>(QosClass::kBulk)] = 2;
  Vlrd dev(eq, hier, vcfg);
  ASSERT_TRUE(dev.push(1, classed_line(QosClass::kBulk)));
  ASSERT_TRUE(dev.push(1, classed_line(QosClass::kBulk)));
  eq.run();
  EXPECT_FALSE(dev.push(1, classed_line(QosClass::kBulk)));
  EXPECT_EQ(dev.last_push_nack(), Vlrd::PushNack::kQuota);
  EXPECT_EQ(dev.stats().push_quota_nacks, 1u);
  EXPECT_TRUE(dev.push(1, classed_line(QosClass::kLatency)));
  eq.run();
  EXPECT_EQ(dev.queued_data(1), 3u);

  // Delivery returns the *bulk* class credit.
  arm_consumer_line(0, 0x70000);
  ASSERT_TRUE(dev.fetch(1, 0x70000, 0));
  eq.run();
  EXPECT_TRUE(dev.push(1, classed_line(QosClass::kBulk)));
}

TEST_F(VlrdFixture, FullBufferReportsFullNotQuota) {
  vcfg.prod_entries = 2;
  Vlrd dev(eq, hier, vcfg);
  ASSERT_TRUE(dev.push(1, classed_line(QosClass::kBulk)));
  ASSERT_TRUE(dev.push(1, classed_line(QosClass::kBulk)));
  EXPECT_FALSE(dev.push(2, classed_line(QosClass::kLatency)));
  EXPECT_EQ(dev.last_push_nack(), Vlrd::PushNack::kFull);
}

TEST_F(VlrdFixture, PushRetryCallbackNamesTheFreedSqi) {
  // The counted-wake contract: an injection reports which SQI freed quota
  // so the runtime wakes that SQI's parked producers plus one
  // buffer-space waiter, not the whole herd.
  Vlrd dev(eq, hier, vcfg);
  std::vector<Sqi> freed;
  dev.set_push_retry_callback([&](std::optional<Sqi> s) {
    ASSERT_TRUE(s.has_value());
    freed.push_back(*s);
  });
  ASSERT_TRUE(dev.push(3, make_line(0x33)));
  arm_consumer_line(0, 0x71000);
  ASSERT_TRUE(dev.fetch(3, 0x71000, 0));
  eq.run();
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], 3u);
}

}  // namespace
}  // namespace vl::vlrd
