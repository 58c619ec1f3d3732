#include "sim/simulator.hpp"

#include <stdexcept>

namespace sctm {

void Simulator::schedule_at(Cycle t, EventFn fn) {
  if (t < now_) {
    throw std::logic_error("Simulator: scheduling into the past (t=" +
                           std::to_string(t) + " < now=" +
                           std::to_string(now_) + ")");
  }
  queue_.push(t, std::move(fn));
}

void Simulator::schedule_in(Cycle delta, EventFn fn) {
  schedule_at(now_ + delta, std::move(fn));
}

void Simulator::schedule_late(Cycle t, EventFn fn) {
  if (t < now_) {
    throw std::logic_error("Simulator: scheduling into the past (late band)");
  }
  queue_.push(t, std::move(fn), EventQueue::kLate);
}

std::uint64_t Simulator::run() { return run_until(kNoCycle); }

std::uint64_t Simulator::run_until(Cycle deadline) {
  // Batch dispatch: advance to the earliest pending cycle once, then drain
  // that whole cycle from its wheel bucket without re-consulting the queue's
  // front between events.
  std::uint64_t n = 0;
  while (!stopped_ && !queue_.empty()) {
    const Cycle t = queue_.next_time();
    if (t > deadline) break;
    now_ = t;
    n += queue_.drain_cycle(t, stopped_, &executed_);
  }
  if (!stopped_ && deadline != kNoCycle && now_ < deadline &&
      (queue_.empty() || queue_.next_time() > deadline)) {
    now_ = deadline;
  }
  return n;
}

bool Simulator::step() {
  if (stopped_ || queue_.empty()) return false;
  auto [t, fn] = queue_.pop();
  now_ = t;
  fn();
  ++executed_;
  return true;
}

void Simulator::reset() {
  queue_.reset();
  stats_.reset();
  now_ = 0;
  executed_ = 0;
  stopped_ = false;
}

}  // namespace sctm
