#pragma once
// Alternative endpoint addressing via a routing address table (§ III-C2):
//
//   "An alternative addressing scheme that we explored adds an address
//    table to the VLRD (populated on mmap) to map to arbitrary addresses,
//    however, at the cost of an extra cycle to the pipeline § III-A and
//    content addressable memory for the routing table."
//
// Under the default bit-field scheme (addressing.hpp), the SQI is carved
// out of the device PA directly, which burns physical address space:
// 1 VLRD x 64 SQIs x 32 pages x 4 KiB = 8 MiB of PA window per device.
// The table scheme instead hands out *compact* device pages (sequential
// 4 KiB mappings) and resolves page -> (device, SQI) through a bounded CAM,
// paying one extra cycle per vl_push/vl_fetch and one CAM row per mapped
// page. `bench_paper --figure ablation-extensions` quantifies both sides of
// the trade.

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/types.hpp"
#include "vlrd/addressing.hpp"

namespace vl::vlrd {

/// One CAM row: a mapped 4 KiB device page and the queue it resolves to.
struct AddrTableEntry {
  std::uint32_t vlrd_id = 0;
  Sqi sqi = 0;
};

/// Bounded content-addressable routing table. Associative on the page
/// frame of the incoming device address; capacity models the CAM size.
class AddrTable {
 public:
  explicit AddrTable(std::uint32_t capacity = 256) : capacity_(capacity) {}

  /// Install a page mapping (called on vl_mmap). False when the CAM is
  /// full — the supervisor must fail the mmap.
  bool insert(Addr page_va, std::uint32_t vlrd_id, Sqi sqi);

  /// Remove a mapping (called on vl_munmap). Idempotent.
  void erase(Addr page_va);

  /// Resolve an endpoint VA to its queue. Matches on the page frame, so
  /// any 64 B slot within a mapped page resolves. std::nullopt on miss
  /// (unmapped device address -> the access faults).
  std::optional<AddrTableEntry> lookup(Addr va) const;

  std::uint32_t size() const { return static_cast<std::uint32_t>(map_.size()); }
  std::uint32_t capacity() const { return capacity_; }

  /// PA-window bytes consumed by `pages` mapped pages under this scheme
  /// (compact: one 4 KiB frame each) — compare with bitfield_window_bytes.
  static Addr table_window_bytes(std::uint32_t pages) {
    return Addr{pages} * 4096;
  }

  /// PA-window bytes reserved by the Fig. 9 bit-field scheme for a device
  /// (fixed, whether or not pages are mapped): SQIs x pages x 4 KiB.
  static Addr bitfield_window_bytes() {
    return (Addr{1} << kSqiBits) * (Addr{1} << kPageBits) * 4096;
  }

 private:
  static Addr frame(Addr va) { return va >> 12; }

  std::uint32_t capacity_;
  std::unordered_map<Addr, AddrTableEntry> map_;  // page frame -> entry
};

}  // namespace vl::vlrd
