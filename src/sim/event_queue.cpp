#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <utility>

namespace sctm {

std::uint64_t EventQueue::push(Cycle t, EventFn fn, Band band) {
  const std::uint64_t seq = next_seq_++;
  ++size_;
  if (in_window(t)) {
    Bucket& b = wheel_[t & kWheelMask];
    b.band[band].push_back(Slot{seq, std::move(fn)});
    occupied_ |= std::uint64_t{1} << (t & kWheelMask);
    ++wheel_count_;
  } else {
    // Beyond the horizon — or, for the standalone queue only, behind the
    // window (the Simulator rejects past schedules before they get here).
    far_.push_back(FarEntry{t, band, seq, std::move(fn)});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
  }
  return seq;
}

Cycle EventQueue::next_time() const {
  Cycle best = far_.empty() ? kNoCycle : far_.front().time;
  if (wheel_count_ != 0) {
    const auto rot = std::rotr(occupied_, static_cast<int>(wheel_base_ & kWheelMask));
    const Cycle wheel_next =
        wheel_base_ + static_cast<Cycle>(std::countr_zero(rot));
    if (wheel_next < best) best = wheel_next;
  }
  return best;
}

void EventQueue::service(Cycle t) {
  assert(t >= wheel_base_);
  // Every bucket in [wheel_base_, t) is empty — t is the earliest pending
  // time — so the window slides forward without scanning. Existing wheel
  // entries all lie in [t, old_base + kWheelSize) ⊆ [t, t + kWheelSize), so
  // their bucket mapping (cycle & kWheelMask) stays valid.
  wheel_base_ = t;

  if (far_.empty() || far_.front().time != t) return;

  // Fold the far entries for cycle t into the front of its bucket. They were
  // all pushed before t entered the window (the window never moves backwards),
  // so their seqs precede every direct wheel entry for t: prepending in heap
  // pop order restores exact (band, seq) order.
  Bucket& b = wheel_[t & kWheelMask];
  assert(b.head[0] == 0 && b.head[1] == 0);
  std::size_t migrated = 0;
  while (!far_.empty() && far_.front().time == t) {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    FarEntry e = std::move(far_.back());
    far_.pop_back();
    migrate_scratch_[e.band].push_back(Slot{e.seq, std::move(e.fn)});
    ++migrated;
  }
  for (int band = 0; band < 2; ++band) {
    auto& scratch = migrate_scratch_[band];
    if (scratch.empty()) continue;
    auto& v = b.band[band];
    v.insert(v.begin(), std::make_move_iterator(scratch.begin()),
             std::make_move_iterator(scratch.end()));
    scratch.clear();
  }
  wheel_count_ += migrated;
  occupied_ |= std::uint64_t{1} << (t & kWheelMask);
}

void EventQueue::retire_bucket(Bucket& b, Cycle t) {
  b.band[0].clear();  // keeps capacity: steady state reuses the storage
  b.band[1].clear();
  b.head[0] = b.head[1] = 0;
  occupied_ &= ~(std::uint64_t{1} << (t & kWheelMask));
}

EventQueue::Popped EventQueue::pop() {
  assert(!empty());
  const Cycle t = next_time();
  if (t < wheel_base_) return pop_far();
  service(t);
  Bucket& b = wheel_[t & kWheelMask];
  for (int band = 0; band < 2; ++band) {
    auto& v = b.band[band];
    std::size_t& h = b.head[band];
    if (h < v.size()) {
      Popped out{t, std::move(v[h].fn)};
      ++h;
      --wheel_count_;
      --size_;
      if (b.head[0] == b.band[0].size() && b.head[1] == b.band[1].size()) {
        retire_bucket(b, t);
      }
      return out;
    }
  }
  assert(false && "next_time() pointed at an empty bucket");
  return pop_far();
}

EventQueue::Popped EventQueue::pop_far() {
  std::pop_heap(far_.begin(), far_.end(), FarLater{});
  FarEntry e = std::move(far_.back());
  far_.pop_back();
  --size_;
  return Popped{e.time, std::move(e.fn)};
}

std::uint64_t EventQueue::drain_cycle(Cycle t, const bool& stop,
                                      std::uint64_t* executed) {
  std::uint64_t n = 0;
  if (t < wheel_base_) {
    // Behind the window: only far entries can live here (standalone-queue
    // usage; the Simulator never schedules into the past). Events executed
    // here may push more work onto cycle t — those also land in the far
    // heap, so the loop re-checks the top each iteration.
    while (!stop && !far_.empty() && far_.front().time == t) {
      Popped p = pop_far();
      p.fn();
      if (executed != nullptr) ++*executed;
      ++n;
    }
    return n;
  }

  service(t);
  Bucket& b = wheel_[t & kWheelMask];
  // Dispatch loop. Events may append to either band of this same bucket
  // (schedule_in(0), late flushes), so sizes are re-read every iteration and
  // the normal band is re-checked before each late event — identical order
  // to popping one event at a time. The callable is moved out of the slot
  // before invocation because a same-cycle push can reallocate the vector
  // mid-call.
  while (!stop) {
    int band;
    if (b.head[0] < b.band[0].size()) {
      band = 0;
    } else if (b.head[1] < b.band[1].size()) {
      band = 1;
    } else {
      break;
    }
    EventFn fn = std::move(b.band[band][b.head[band]].fn);
    ++b.head[band];
    --wheel_count_;
    --size_;
    fn();
    if (executed != nullptr) ++*executed;
    ++n;
  }
  if (b.head[0] == b.band[0].size() && b.head[1] == b.band[1].size()) {
    retire_bucket(b, t);
  }
  return n;
}

void EventQueue::reset() {
  for (Cycle c = 0; c < kWheelSize; ++c) {
    retire_bucket(wheel_[c], c);
  }
  far_.clear();
  occupied_ = 0;
  wheel_count_ = 0;
  wheel_base_ = 0;
  size_ = 0;
  next_seq_ = 0;
}

}  // namespace sctm
