#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace vl::sim {

EventQueue::EventQueue()
    : ring_(std::make_unique_for_overwrite<Bucket[]>(kRingSize)) {}

std::uint32_t EventQueue::alloc_node(std::uint64_t seq, Fn fn) {
  std::uint32_t i = free_;
  if (i != kNil) {
    free_ = slab_[i].next;
  } else {
    assert(slab_.size() < kNil && "event slab index overflow");
    i = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Node& n = slab_[i];
  n.seq = seq;
  n.next = kNil;
  n.fn = std::move(fn);
  return i;
}

void EventQueue::schedule_at(Tick when, Fn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  ++size_;
  const std::uint64_t seq = seq_++;
  const std::uint32_t i = alloc_node(seq, std::move(fn));
  if (when - now_ < kRingSize) {
    const std::size_t k = when & kRingMask;
    Bucket& b = ring_[k];
    if (test_bit(k)) {
      slab_[b.tail].next = i;
    } else {
      b.head = i;
      set_bit(k);
    }
    b.tail = i;
  } else {
    far_.push_back(FarEv{when, seq, i});
    std::push_heap(far_.begin(), far_.end(), FarAfter{});
  }
}

std::optional<Tick> EventQueue::next_ring_tick() const {
  const std::size_t start = now_ & kRingMask;
  // Ring order starting at `start` and wrapping equals tick order, because
  // only ticks in [now, now + kRingSize) can be resident.
  const std::size_t start_word = start >> 6;
  constexpr std::size_t kWords = kRingSize / 64;
  for (std::size_t w = 0; w <= kWords; ++w) {
    const std::size_t word = (start_word + w) % kWords;
    std::uint64_t bits = bits_[word];
    if (w == 0) bits &= ~std::uint64_t{0} << (start & 63);  // at/after start
    if (w == kWords) bits &= (std::uint64_t{1} << (start & 63)) - 1;  // wrapped
    if (!bits) continue;
    const std::size_t idx =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    return now_ + ((idx - start) & kRingMask);
  }
  return std::nullopt;
}

void EventQueue::migrate_far(Tick t) {
  if (far_.empty() || far_.front().when != t) return;
  const std::size_t k = t & kRingMask;
  Bucket& b = ring_[k];
  // A far event for t was scheduled while t lay beyond the horizon, so
  // before every near event for t: the due run, popped seq-ascending, goes
  // ahead of the bucket's whole list.
  const std::uint32_t near = test_bit(k) ? b.head : kNil;
  std::uint32_t* link = &b.head;
  std::uint32_t last = kNil;
  while (!far_.empty() && far_.front().when == t) {
    std::pop_heap(far_.begin(), far_.end(), FarAfter{});
    last = far_.back().node;
    far_.pop_back();
    assert(near == kNil || slab_[last].seq < slab_[near].seq);
    *link = last;
    link = &slab_[last].next;
  }
  *link = near;
  if (near == kNil) b.tail = last;
  set_bit(k);
}

std::optional<Tick> EventQueue::peek_next_tick() const {
  const auto ring_next = next_ring_tick();
  if (!far_.empty() && (!ring_next || far_.front().when < *ring_next))
    return far_.front().when;
  return ring_next;
}

bool EventQueue::step() {
  const auto t = peek_next_tick();
  if (!t) return false;
  if (*t != now_) {
    now_ = *t;
    migrate_far(*t);
  }
  const std::size_t k = now_ & kRingMask;
  assert(test_bit(k));
  Bucket& b = ring_[k];
  const std::uint32_t i = b.head;
  Node& n = slab_[i];
  b.head = n.next;
  if (b.head == kNil) clear_bit(k);
  // Move the callable out and free the node before invoking it: fn may
  // schedule, and a slab that grows relocates every node.
  EventFn fn = std::move(n.fn);
  n.next = free_;
  free_ = i;
  --size_;
  ++executed_;
  fn();
  return true;
}

std::uint64_t EventQueue::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

void EventQueue::run_until(Tick t) {
  for (;;) {
    const auto next = peek_next_tick();
    if (!next || *next > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace vl::sim
