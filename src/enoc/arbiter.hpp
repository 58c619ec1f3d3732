// Arbiters used by the router's allocators, granting over request bitmasks.
//
// A request set of width w is a little-endian array of words_for(w) 64-bit
// words: requester i is bit (i & 63) of word (i >> 6), and bits at or above w
// are zero. Wide sets span several words — VC allocation arbitrates over
// ports x VCs requesters (80 on a mesh with 16 VCs, over a thousand on a
// wide file fabric).
//
// Round-robin: classic rotating priority — the first request at or after the
// pointer wins, wrapping, and the pointer moves past the winner. Matrix:
// least-recently-granted — each requester keeps a mask of the requesters
// that beat it, the lowest-indexed request no other request beats wins, and
// the winner then drops below everyone. Both are deterministic given the
// request history; both are exposed so the ablation benches can compare.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sctm::enoc {

enum class ArbiterKind { kRoundRobin, kMatrix };

class Arbiter {
 public:
  Arbiter(ArbiterKind kind, int width);

  /// Words in a request set of `width` requesters.
  static std::size_t words_for(int width) {
    return (static_cast<std::size_t>(width) + 63) / 64;
  }

  /// Picks one set bit of `requests` (words_for(width) words) and returns
  /// its index, or -1 when none is set. Updates priority state only when a
  /// grant is issued.
  int grant(const std::uint64_t* requests) {
    return kind_ == ArbiterKind::kMatrix ? grant_matrix(requests)
                                         : grant_round_robin(requests);
  }

 private:
  // Both grants are inline: the router calls one per port with requests,
  // every cycle, and its tick compiles them in.
  int grant_round_robin(const std::uint64_t* requests) {
    // The pointer's own word (bits at or after the pointer), the words after
    // it, round to that word again (bits before the pointer).
    const std::size_t first = static_cast<std::size_t>(next_) >> 6;
    const std::uint64_t at_or_after = ~std::uint64_t{0} << (next_ & 63);
    std::size_t w = first;
    for (std::size_t k = 0; k <= words_; ++k) {
      std::uint64_t bits = requests[w];
      if (k == 0) {
        bits &= at_or_after;
      } else if (k == words_) {
        bits &= ~at_or_after;
      }
      if (bits != 0) {
        const int idx = static_cast<int>(w * 64) + std::countr_zero(bits);
        next_ = idx + 1 == width_ ? 0 : idx + 1;
        return idx;
      }
      if (++w == words_) w = 0;
    }
    return -1;
  }
  int grant_matrix(const std::uint64_t* requests) {
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = requests[w]; bits != 0; bits &= bits - 1) {
        const int i = static_cast<int>(w * 64) + std::countr_zero(bits);
        std::uint64_t* row = &beaten_by_[static_cast<std::size_t>(i) * words_];
        bool beaten = false;
        for (std::size_t k = 0; k < words_ && !beaten; ++k) {
          beaten = (row[k] & requests[k]) != 0;
        }
        if (beaten) continue;
        // The winner drops to lowest priority: it beats no one, everyone
        // beats it.
        const std::size_t col = static_cast<std::size_t>(i) >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        for (int j = 0; j < width_; ++j) {
          beaten_by_[static_cast<std::size_t>(j) * words_ + col] &= ~bit;
        }
        for (std::size_t k = 0; k < words_; ++k) {
          const int left = width_ - static_cast<int>(k * 64);
          row[k] = left >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << left) - 1;
        }
        row[col] &= ~bit;
        return i;
      }
    }
    return -1;
  }

  ArbiterKind kind_;
  int width_;
  std::size_t words_;
  int next_ = 0;  // round-robin: highest-priority index for the next grant
  /// Matrix: row i (words_ words) holds the requesters that beat i.
  std::vector<std::uint64_t> beaten_by_;
};

}  // namespace sctm::enoc
