// FlatMap: open-addressing hash map for the simulator's hot bookkeeping
// tables (in-flight message state, arrival-time records).
//
// std::unordered_map allocates one node per insert and frees it on erase, so
// a steady stream of messages puts a malloc/free pair on every message even
// when the *population* of the table is constant. FlatMap stores slots in one
// flat array with linear probing and backward-shift deletion: capacity is
// retained across erase/insert cycles, so the steady-state message path is
// allocation-free (the table only allocates when the high-water population
// grows past the load-factor limit).
//
// Restrictions, on purpose (this is a kernel container, not a general map):
//  * Key is an unsigned integer type; one key value is reserved as the empty
//    sentinel and must never be inserted (defaults to the all-ones value,
//    matching kInvalidMsg / kNoCycle).
//  * Value must be movable; slots hold Value by value.
//  * Iteration order is unspecified (the simulator never iterates these
//    tables on a determinism-relevant path).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace sctm {

template <typename Key, typename Value,
          Key kEmptyKey = std::numeric_limits<Key>::max()>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys are unsigned integers");

 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` live entries without rehash.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  Value* find(Key key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = probe_start(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }
  const Value* find(Key key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Inserts (key -> value); the key must not be present (assert).
  Value& insert(Key key, Value value) {
    assert(key != kEmptyKey && "FlatMap: reserved sentinel key");
    if (slots_.empty() || (size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    for (std::size_t i = probe_start(key);; i = next(i)) {
      Slot& s = slots_[i];
      assert(s.key != key && "FlatMap: duplicate key");
      if (s.key == kEmptyKey) {
        s.key = key;
        s.value = std::move(value);
        ++size_;
        return s.value;
      }
    }
  }

  /// Removes `key` if present; returns whether it was. Backward-shift
  /// deletion keeps probe chains intact without tombstones, so lookup cost
  /// stays bounded by the live load factor forever.
  bool erase(Key key) {
    if (slots_.empty()) return false;
    std::size_t i = probe_start(key);
    for (;; i = next(i)) {
      if (slots_[i].key == key) break;
      if (slots_[i].key == kEmptyKey) return false;
    }
    std::size_t hole = i;
    for (std::size_t j = next(hole);; j = next(j)) {
      Slot& cand = slots_[j];
      if (cand.key == kEmptyKey) break;
      const std::size_t home = probe_start(cand.key);
      // cand may fill the hole only if the hole lies on cand's probe path
      // (cyclically between its home slot and its current slot).
      const bool movable = (j >= home) ? (hole >= home && hole < j)
                                       : (hole >= home || hole < j);
      if (movable) {
        slots_[hole].key = cand.key;
        slots_[hole].value = std::move(cand.value);
        cand.key = kEmptyKey;
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  void clear() {
    for (Slot& s : slots_) {
      s.key = kEmptyKey;
      s.value = Value{};
    }
    size_ = 0;
  }

  /// Calls fn(key, value&) for every live entry (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    Key key = kEmptyKey;
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 16;
  // Max load factor 7/8: probes stay short, growth stays rare.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  std::size_t probe_start(Key key) const {
    // Fibonacci hashing spreads sequential ids (the common MsgId pattern)
    // across the table.
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    shift_ = 64 - log2_of(new_cap);
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != kEmptyKey) insert(s.key, std::move(s.value));
    }
  }

  static unsigned log2_of(std::size_t pow2) {
    unsigned b = 0;
    while ((std::size_t{1} << b) < pow2) ++b;
    return b;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace sctm
