#pragma once
// Discrete-event simulation kernel.
//
// A single EventQueue provides the global simulated timeline. Events are
// (tick, sequence) ordered, so two events scheduled for the same tick fire
// in scheduling order — this makes every simulation run fully deterministic.
//
// The implementation is allocation-light:
//
//   * EventFn is a move-only callable with a 96-byte small-buffer: every
//     callback the simulator schedules (coroutine resumes, memory-commit
//     lambdas, device completions) fits inline, so the steady-state event
//     loop performs no heap allocation per event. Oversized callables fall
//     back to the heap transparently.
//   * Every pending event lives in one per-queue node slab, addressed by
//     32-bit index. A fired node goes on an intrusive LIFO free list and
//     the next schedule reuses it while it is still in cache, so the slab
//     never holds more nodes than the queue's peak number of pending
//     events, and once it reaches that peak scheduling allocates nothing.
//   * Near-future events (the overwhelming majority: issue costs, cache
//     latencies, backoffs, context switches) land in a calendar ring of
//     per-tick buckets covering [now, now + 8192). Each bucket is a
//     {head, tail} FIFO linked through the slab, so the ring is a fixed
//     64 KB. Scheduling and firing are O(1); a 128-word occupancy bitmap
//     (one bit per bucket) finds the next occupied tick with a linear
//     countr_zero scan of at most 129 words. The bitmap is the only record
//     of which buckets are empty: a bucket's {head, tail} is meaningful
//     only while its bit is set, so the ring is allocated uninitialised.
//   * Events beyond the ring horizon sit in a binary min-heap of
//     {when, seq, node} entries (the callable stays in its slab node).
//     When the clock reaches their tick they are relinked, in sequence
//     order, ahead of the near events in its bucket, which were all
//     scheduled later; global FIFO-per-tick order holds.

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace vl::obs {
class TraceBuffer;
}

namespace vl::sim {

/// Move-only, fire-once callable with small-buffer storage sized for the
/// simulator's hottest capture set (a MemRequest + completion functor).
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 96;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                 std::is_invocable_v<D&>,
                             int> = 0>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVt<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &kHeapVt<D>;
    }
  }

  EventFn(EventFn&& o) noexcept { steal(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() {
    assert(vt_ && "invoking an empty EventFn");
    vt_->invoke(buf_);
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct the payload into `to` and destroy it in `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
  };

  template <class D>
  inline static const VTable kInlineVt{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* from, void* to) {
        D* f = static_cast<D*>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <class D>
  inline static const VTable kHeapVt{
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* from, void* to) {
        ::new (to) D*(*static_cast<D**>(from));
      },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void steal(EventFn& o) noexcept {
    if (o.vt_) {
      o.vt_->relocate(o.buf_, buf_);
      vt_ = std::exchange(o.vt_, nullptr);
    }
  }
  void reset() noexcept {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

class EventQueue {
 public:
  using Fn = EventFn;

  EventQueue();

  Tick now() const { return now_; }

  /// Schedule fn at absolute tick `when` (must be >= now()).
  void schedule_at(Tick when, Fn fn);

  /// Schedule fn `delta` ticks from now.
  void schedule_in(Tick delta, Fn fn) { schedule_at(now_ + delta, std::move(fn)); }

  /// Run one event; returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Run until simulated time reaches `t` (events at t still fire) or the
  /// queue drains.
  void run_until(Tick t);

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

  /// Earliest tick (>= now()) holding a pending event, or nullopt when the
  /// queue is empty. Fires nothing — the sharded stepper's safe-horizon
  /// probe (sim/sharded.hpp).
  std::optional<Tick> peek_next_tick() const;

  /// Nodes in the event slab: the peak number of events ever pending at
  /// once, which bounds the queue's retained event storage.
  std::size_t slots() const { return slab_.size(); }

  /// Total events executed over the queue's lifetime (throughput metric).
  std::uint64_t executed() const { return executed_; }

  /// Trace sink for everything running on this queue's timeline (SimThread
  /// parks, channel bursts, VLRD pipeline). Null unless tracing was
  /// requested; hooks test the pointer and skip.
  obs::TraceBuffer* trace() const { return trace_; }
  void set_trace(obs::TraceBuffer* tb) { trace_ = tb; }

 private:
  // Calendar ring: one bucket per tick over [now, now + kRingSize).
  static constexpr std::size_t kRingBits = 13;
  static constexpr std::size_t kRingSize = std::size_t{1} << kRingBits;
  static constexpr std::size_t kRingMask = kRingSize - 1;

  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Node {
    std::uint64_t seq;
    std::uint32_t next;  // bucket FIFO link, or free-list link once fired
    EventFn fn;
  };
  struct Bucket {  // seq-ascending FIFO of slab nodes; read only under its bit
    std::uint32_t head;
    std::uint32_t tail;
  };
  struct FarEv {
    Tick when;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct FarAfter {  // min-heap ordering on (when, seq)
    bool operator()(const FarEv& a, const FarEv& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  bool test_bit(std::size_t i) const { return (bits_[i >> 6] >> (i & 63)) & 1; }
  void set_bit(std::size_t i) { bits_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear_bit(std::size_t i) {
    bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Take a slab node (the most recently freed one, if any) holding fn.
  std::uint32_t alloc_node(std::uint64_t seq, Fn fn);
  /// Bitmap scan for the earliest occupied ring tick at or after now_.
  std::optional<Tick> next_ring_tick() const;
  /// Relink far-heap events due at tick `t` to the front of its bucket.
  void migrate_far(Tick t);

  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Node> slab_;
  std::uint32_t free_ = kNil;  // LIFO free list through Node::next
  std::unique_ptr<Bucket[]> ring_;  // kRingSize buckets, uninitialised
  std::array<std::uint64_t, kRingSize / 64> bits_{};
  std::vector<FarEv> far_;  // binary heap under FarAfter
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace vl::sim
