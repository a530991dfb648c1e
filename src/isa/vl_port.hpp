#pragma once
// Core-side model of the three VL ISA extensions (paper § III-B):
//
//   vl_select Rt     — translate + latch the PA of the cache line at VA Rt,
//                      bringing it into L1D in Exclusive state (like a store
//                      miss would). The latch is a system register, not
//                      context state: it clears on context switch.
//   vl_push Rs, Rt   — conditionally write the selected line to the VLRD
//                      device address in Rt. Rs=0 on success; nonzero when
//                      no selection was made or the VLRD NACKs (full).
//                      On success the producer line is zeroed and left
//                      Exclusive, ready for the next enqueue.
//   vl_fetch Rs, Rt  — register consumer demand: sets the "pushable" tag
//                      bit on the selected line and sends (target PA,
//                      core-id) to the VLRD. Rs=0 when the request was
//                      registered (or data is already on the way).
//
// Both vl_push and vl_fetch hold the core's issue port until the device
// response arrives, modelling the paper's guarantee that no context swap or
// interrupt can occur before Rs receives the result. Context switches clear
// the per-thread selection latch and all pushable bits in the core's L1.
//
// One device transaction per direction. Every push — a latched vl_push or
// a fused select+push run — goes through push_run(); every fetch through
// fetch_run(). A single message is a run of one. Each transaction is one
// resolve, one outbound bus transit, one device arrival (the direction's
// single device-time stamp point) and one response, in this order:
//
//   push:  resolve -> transit -> device admits the lines in order, NACKing
//          at the first that does not fit -> response -> the core zeroes
//          each accepted line (Exclusive, ready for the next enqueue).
//   fetch: pushable tags set on the lines as the instruction issues ->
//          resolve -> transit -> device registers demand in order,
//          stopping at the first refusal -> response -> the core drops the
//          tags of the lines the device did not register.
//
// The tag goes up before the request leaves the core (§ III-B), so an
// injection can never arrive ahead of the tag that admits it. The core
// acts on the device's answer — zeroing, tag clearing — when the response
// reaches it.

#include <span>
#include <unordered_map>

#include "mem/hierarchy.hpp"
#include "sim/core.hpp"
#include "vlrd/addressing.hpp"
#include "vlrd/cluster.hpp"
#include "vlrd/vlrd.hpp"

namespace vl::isa {

/// vl_push / vl_fetch result codes (values written to Rs).
enum VlStatus : int {
  kVlOk = 0,
  kVlNoSelection = 1,  ///< No preceding vl_select (or cleared by ctx swap).
  kVlNack = 2,         ///< VLRD out of buffer capacity (back-pressure).
  kVlEvicted = 3,      ///< Selected line left the L1 before vl_fetch.
  kVlFault = 4,        ///< Device address missed the routing table
                       ///< (kAddrTable scheme only).
  kVlNackQuota = 5,    ///< VLRD NACK for a per-SQI / per-class quota rather
                       ///< than a full buffer: retrying is pointless until
                       ///< *this* SQI drains, so callers park on the SQI's
                       ///< wait queue instead of the global space futex.
};

class VlPort {
 public:
  VlPort(sim::Core& core, mem::Hierarchy& hier, vlrd::Cluster& devs,
         const sim::VlrdConfig& cfg);

  sim::Co<void> vl_select(int tid, Addr va);
  sim::Co<int> vl_push(int tid, Addr dev_va);
  sim::Co<int> vl_fetch(int tid, Addr dev_va);

  // Fused select+op runs: the select+op pairs for a run of lines issue as
  // one macro-op in one scheduling quantum (one port hold), the way a real
  // thread executes them. Issuing them as separate port transactions is
  // also legal — but when two endpoint threads time-share a core, the FIFO
  // issue port then interleaves their ops, and every context switch clears
  // the selection latch before the second instruction reads it: neither
  // thread can ever complete a pair (a livelock the paper's FIR discussion
  // does not intend — real timeslices span many instructions).
  //
  // The device admits a push run under a single prodBuf/quota acquisition
  // and registers a fetch run's demand as a contiguous prefix; `*accepted`
  // / `*registered` receive the prefix length. The per-line work that
  // carries the paper's cost model — each selected line's cache fill,
  // per-line device buffer occupancy — is paid per line; only the
  // per-message instruction/transit overhead amortizes.
  sim::Co<int> vl_select_push(int tid, std::span<const Addr> vas, Addr dev_va,
                              std::size_t* accepted);
  sim::Co<int> vl_select_fetch(int tid, std::span<const Addr> vas,
                               Addr dev_va, std::size_t* registered);

  /// True if `tid` currently holds a selection (test helper).
  bool has_selection(int tid) const { return latched_.count(tid) != 0; }

 private:
  /// A device tail: the port is held and `vas`' lines are selected.
  using Tail = sim::Co<int> (VlPort::*)(std::span<const Addr> vas,
                                        Addr dev_va, std::size_t* done);
  sim::Co<int> issue_latched(int tid, Addr dev_va, Tail tail);
  sim::Co<int> issue_run(int tid, std::span<const Addr> vas, Addr dev_va,
                         std::size_t* done, Tail tail);

  /// The one vl_push device transaction.
  sim::Co<int> push_run(std::span<const Addr> vas, Addr dev_va,
                        std::size_t* accepted);
  /// The one vl_fetch device transaction.
  sim::Co<int> fetch_run(std::span<const Addr> vas, Addr dev_va,
                         std::size_t* registered);

  /// Response leg: the device latency left after the outbound hop (none in
  /// the ideal model).
  sim::Delay response() const {
    const Tick hop = hier_.cfg().bus_hop;
    return sim::Delay(core_.eq(), cfg_.ideal || cfg_.device_lat <= hop
                                      ? 0
                                      : cfg_.device_lat - hop);
  }

  sim::Core& core_;
  mem::Hierarchy& hier_;
  vlrd::Cluster& devs_;  ///< Routed per-access by the VA's VLRD-id bits.
  sim::VlrdConfig cfg_;
  std::unordered_map<int, Addr> latched_;  ///< tid -> selected line PA.
};

}  // namespace vl::isa
