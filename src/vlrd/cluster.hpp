#pragma once
// Multiple routing devices on one coherence network (paper § III-C2):
//
//   "bits J : N+1 could distinguish different VLRDs if more than one VLRD
//    are implemented to serve different VQs independently."
//
// A Cluster owns `num_devices` independent Vlrd instances and routes each
// device-memory access to the device selected by the address's VLRD-id bit
// field (Fig. 9). Every SQI lives on exactly one device, so separate VQs
// never contend for the same prodBuf/consBuf/linkTab or address-mapping
// pipeline — the scaling story `bench_paper --figure ablation-extensions`
// measures for many-channel workloads like halo's 48 channels.

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mem/hierarchy.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "vlrd/addr_table.hpp"
#include "vlrd/addressing.hpp"
#include "vlrd/vlrd.hpp"

namespace vl::vlrd {

class Cluster {
 public:
  Cluster(sim::EventQueue& eq, mem::Hierarchy& hier,
          const sim::VlrdConfig& cfg);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(devices_.size());
  }

  Vlrd& device(std::uint32_t id) { return *devices_.at(id); }
  const Vlrd& device(std::uint32_t id) const { return *devices_.at(id); }

  /// The device addressed by a mapped endpoint VA (Fig. 9 bits J:N+1).
  /// Bit-field scheme only; under kAddrTable use resolve().
  Vlrd& route(Addr dev_va) { return device(decode(dev_va).vlrd_id); }

  /// Resolve an endpoint VA to (device, SQI) under the configured
  /// addressing scheme. std::nullopt when a table lookup misses (the
  /// access faults); the bit-field scheme cannot miss.
  std::optional<std::pair<Vlrd*, Sqi>> resolve(Addr dev_va);

  /// The routing CAM (kAddrTable scheme; unused rows otherwise).
  AddrTable& addr_table() { return table_; }
  sim::Addressing addressing() const { return cfg_.addressing; }
  const sim::VlrdConfig& cfg() const { return cfg_; }

  /// Sum of per-device counters (what system-level experiments report).
  VlrdStats total_stats() const;

  // Epoch-boundary knob forwarding (QoS supervisor / fault plane): apply
  // to every device so the cluster keeps one logical policy. The cluster's
  // own cfg_ copy is updated too, so cfg() reflects the live policy.
  void set_class_quota(QosClass cls, std::uint32_t quota) {
    cfg_.class_quota[static_cast<std::size_t>(cls)] = quota;
    for (auto& d : devices_) d->set_class_quota(cls, quota);
  }
  void set_per_sqi_quota(std::uint32_t quota) {
    cfg_.per_sqi_quota = quota;
    for (auto& d : devices_) d->set_per_sqi_quota(quota);
  }
  void set_injector_stalled(bool stalled) {
    for (auto& d : devices_) d->set_injector_stalled(stalled);
  }

 private:
  sim::VlrdConfig cfg_;
  AddrTable table_;
  std::vector<std::unique_ptr<Vlrd>> devices_;
};

}  // namespace vl::vlrd
