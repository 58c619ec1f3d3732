// Two-level stable event queue: a banded calendar wheel over a far heap.
//
// Determinism rule (unchanged from the original single-heap queue): events
// execute in (time, band, seq) order — all kNormal events of a cycle before
// any kLate event of that cycle, FIFO by scheduling order within a band.
// This is load-bearing: the self-correction replay relies on reproducing
// identical schedules across runs, so ties must never be broken by container
// internals.
//
// Structure. Nearly every schedule in the simulator lands within a few cycles
// of `now` (schedule_in(0..k) from routers, caches and the replay engine), so
// the front kWheelSize cycles live in a circular wheel of per-cycle buckets:
// push is an append to the bucket's per-band vector (FIFO by construction,
// no comparisons, no rebalancing), and a 64-bit occupancy bitmap finds the
// next nonempty bucket with one rotate + count-trailing-zeros. Events beyond
// the wheel horizon go to a conventional (time, band, seq)-keyed binary heap
// and migrate into their bucket when the window reaches them. Migrated
// entries are prepended: the window only slides forward, so every far entry
// for a cycle predates — and therefore out-ranks by seq — every direct wheel
// entry for that cycle.
//
// Allocation. Bucket vectors are retained across cycles (retiring a bucket
// keeps capacity), events are InlineFn (56-byte small-buffer callables), so
// the steady-state push/dispatch path performs zero heap allocations.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/units.hpp"

namespace sctm {

/// Event callables are small-buffer-optimized and move-only; captures up to
/// InlineFn::kInlineCapacity (56 bytes) are stored without heap allocation.
using EventFn = InlineFn;

class EventQueue {
 public:
  /// Execution bands within one timestamp: all kNormal events of a cycle run
  /// before any kLate event of that cycle. The replay engine uses the late
  /// band for injection flushes that must observe every delivery of the
  /// cycle first.
  enum Band : int { kNormal = 0, kLate = 1 };

  /// Cycles covered by the calendar wheel, counting from the current window
  /// base. Power of two; schedules at `base + kWheelSize` or later take the
  /// far-heap path.
  static constexpr std::size_t kWheelSize = 64;

  /// Enqueues `fn` to run at absolute time `t`. Returns a monotonically
  /// increasing sequence number (useful for tests asserting FIFO ties).
  std::uint64_t push(Cycle t, EventFn fn, Band band = kNormal);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest pending event; kNoCycle when empty.
  Cycle next_time() const;

  /// Removes and returns the earliest event (FIFO among ties).
  struct Popped {
    Cycle time;
    EventFn fn;
  };
  Popped pop();

  /// Batch dispatch: executes every event of cycle `t` — which must be
  /// next_time() — in (band, seq) order, including events scheduled onto
  /// cycle `t` while draining. Re-checks the normal band before each late
  /// event, exactly like per-event popping would. Checks `stop` before each
  /// dispatch and leaves the remainder queued when it trips. Increments
  /// *executed once per event after invoking it (matching the historical
  /// per-event pop loop, so mid-event observers see an identical count).
  /// Returns the number executed.
  std::uint64_t drain_cycle(Cycle t, const bool& stop,
                            std::uint64_t* executed = nullptr);

  /// Session reset, the queue's only way to drop pending events: empties
  /// every bucket and the far heap and rewinds the sequence counter, so the
  /// queue is observationally identical to a freshly constructed one
  /// (total_pushed() restarts at zero, tie-break seqs repeat bit-exactly)
  /// while every bucket vector, the far heap and the migration scratch
  /// retain their grown capacity for the next replay pass.
  void reset();

  /// Total events ever pushed (event-count metric for bench R-A2).
  std::uint64_t total_pushed() const { return next_seq_; }

 private:
  static constexpr Cycle kWheelMask = kWheelSize - 1;

  struct Slot {
    std::uint64_t seq;
    EventFn fn;
  };
  struct Bucket {
    std::vector<Slot> band[2];
    std::size_t head[2] = {0, 0};  // dispatch cursor per band
  };
  struct FarEntry {
    Cycle time;
    int band;
    std::uint64_t seq;
    EventFn fn;
  };
  struct FarLater {
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.band != b.band) return a.band > b.band;
      return a.seq > b.seq;
    }
  };

  bool in_window(Cycle t) const {
    return t >= wheel_base_ && t - wheel_base_ < kWheelSize;
  }
  /// Slides the window to `t` (all earlier buckets are empty when the caller
  /// services the earliest pending time) and folds far-heap entries for `t`
  /// into the front of its bucket.
  void service(Cycle t);
  void retire_bucket(Bucket& b, Cycle t);
  Popped pop_far();

  std::array<Bucket, kWheelSize> wheel_{};
  std::uint64_t occupied_ = 0;  // bit (c & kWheelMask) set iff bucket nonempty
  Cycle wheel_base_ = 0;        // first cycle of the current window
  std::size_t wheel_count_ = 0;

  std::vector<FarEntry> far_;  // min-heap via std::push_heap/pop_heap
  std::vector<Slot> migrate_scratch_[2];

  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sctm
