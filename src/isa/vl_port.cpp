#include "isa/vl_port.hpp"

namespace vl::isa {

VlPort::VlPort(sim::Core& core, mem::Hierarchy& hier, vlrd::Cluster& devs,
               const sim::VlrdConfig& cfg)
    : core_(core), hier_(hier), devs_(devs), cfg_(cfg) {
  // On context swap the latched PA is cleared (§ III-B) and every pushable
  // bit in this core's private cache drops, so in-flight injections
  // targeting the outgoing thread are rejected rather than clobbering state.
  core_.add_ctx_switch_hook([this](int old_tid, int /*new_tid*/) {
    latched_.erase(old_tid);
    hier_.clear_pushable(core_.id());
  });
}

sim::Co<void> VlPort::vl_select(int tid, Addr va) {
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  // Brings the line into L1D in an exclusive state, "just as any store
  // would" — a miss pays the normal fill latency.
  const Tick lat = hier_.select_line(core_.id(), line_of(va));
  co_await sim::Delay(core_.eq(), lat);
  latched_[tid] = line_of(va);
  core_.release_port();
}

sim::Co<int> VlPort::vl_push(int tid, Addr dev_va) {
  return issue_latched(tid, dev_va, &VlPort::push_run);
}

sim::Co<int> VlPort::vl_fetch(int tid, Addr dev_va) {
  return issue_latched(tid, dev_va, &VlPort::fetch_run);
}

sim::Co<int> VlPort::vl_select_push(int tid, std::span<const Addr> vas,
                                    Addr dev_va, std::size_t* accepted) {
  return issue_run(tid, vas, dev_va, accepted, &VlPort::push_run);
}

sim::Co<int> VlPort::vl_select_fetch(int tid, std::span<const Addr> vas,
                                     Addr dev_va, std::size_t* registered) {
  return issue_run(tid, vas, dev_va, registered, &VlPort::fetch_run);
}

sim::Co<int> VlPort::issue_latched(int tid, Addr dev_va, Tail tail) {
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  int rc = kVlNoSelection;
  if (auto it = latched_.find(tid); it != latched_.end()) {
    const Addr line = it->second;
    latched_.erase(it);  // selection ends on completion either way
    std::size_t done = 0;
    rc = co_await (this->*tail)(std::span<const Addr>(&line, 1), dev_va,
                                &done);
  }
  core_.release_port();
  co_return rc;
}

sim::Co<int> VlPort::issue_run(int tid, std::span<const Addr> vas,
                               Addr dev_va, std::size_t* done, Tail tail) {
  *done = 0;
  if (vas.empty()) co_return kVlOk;
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  latched_.erase(tid);  // the run leaves no latched selection
  // Select every line of the run: each fill into Exclusive is real cache
  // work and is paid per line.
  for (const Addr va : vas) {
    const Tick lat = hier_.select_line(core_.id(), line_of(va));
    co_await sim::Delay(core_.eq(), lat);
  }
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  const int rc = co_await (this->*tail)(vas, dev_va, done);
  core_.release_port();
  co_return rc;
}

sim::Co<int> VlPort::push_run(std::span<const Addr> vas, Addr dev_va,
                              std::size_t* accepted) {
  // Resolve the endpoint address; the CAM scheme costs one extra pipeline
  // cycle per access and can fault on an unmapped page (§ III-C2).
  if (cfg_.addressing == sim::Addressing::kAddrTable)
    co_await sim::Delay(core_.eq(), cfg_.addr_table_extra);
  const auto res = devs_.resolve(dev_va);
  if (!res) co_return kVlFault;
  vlrd::Vlrd& dev = *res->first;
  // Non-snooping device write: one bus hop out for the whole run.
  if (!cfg_.ideal)
    co_await sim::DelayUntil(core_.eq(), hier_.device_hop(0));
  vlrd::Vlrd::PushNack nack = vlrd::Vlrd::PushNack::kNone;
  for (; *accepted < vas.size(); ++*accepted) {
    mem::Line data;
    hier_.peek_line(line_of(vas[*accepted]), data.data());
    if (!dev.push(res->second, data)) {
      // Latch the NACK reason before suspending for the response — another
      // core's push to the same device lands in that window and overwrites
      // the device-side status.
      nack = dev.last_push_nack();
      break;
    }
  }
  co_await response();
  // Copy-over leaves each accepted line zeroed and Exclusive, ready for the
  // next enqueue without any further coherence traffic.
  for (std::size_t i = 0; i < *accepted; ++i)
    hier_.zero_and_exclusive(core_.id(), line_of(vas[i]));
  if (*accepted == vas.size()) co_return kVlOk;
  co_return nack == vlrd::Vlrd::PushNack::kQuota ? kVlNackQuota : kVlNack;
}

sim::Co<int> VlPort::fetch_run(std::span<const Addr> vas, Addr dev_va,
                               std::size_t* registered) {
  // Tag the lines as the instruction issues, stopping at one that left the
  // cache since its select.
  std::size_t tagged = 0;
  while (tagged < vas.size() &&
         hier_.set_pushable(core_.id(), line_of(vas[tagged]), true))
    ++tagged;
  int rc = tagged == vas.size() ? kVlOk : kVlEvicted;
  if (tagged == 0) co_return rc;
  if (cfg_.addressing == sim::Addressing::kAddrTable)
    co_await sim::Delay(core_.eq(), cfg_.addr_table_extra);
  if (const auto res = devs_.resolve(dev_va)) {
    if (!cfg_.ideal)
      co_await sim::DelayUntil(core_.eq(), hier_.device_hop(0));
    // Register demand in line order, stopping at the first refusal so the
    // device's request FIFO stays a contiguous ring-order prefix
    // (injections must land in the order the consumer's polls visit the
    // lines).
    while (*registered < tagged &&
           res->first->fetch(res->second, line_of(vas[*registered]),
                             core_.id()))
      ++*registered;
    if (*registered < tagged) rc = kVlNack;  // consBuf full
    co_await response();
  } else {
    rc = kVlFault;
  }
  for (std::size_t i = *registered; i < tagged; ++i)
    hier_.set_pushable(core_.id(), line_of(vas[i]), false);
  co_return rc;
}

}  // namespace vl::isa
