#include "enoc/arbiter.hpp"

#include <bit>
#include <stdexcept>

namespace sctm::enoc {

Arbiter::Arbiter(ArbiterKind kind, int width)
    : kind_(kind), width_(width), words_(words_for(width)) {
  if (width < 1) throw std::invalid_argument("Arbiter: width must be >= 1");
  if (kind_ != ArbiterKind::kMatrix) return;
  // Initial total order: lower index beats higher, so row i holds bits [0, i).
  beaten_by_.assign(static_cast<std::size_t>(width_) * words_, 0);
  for (int i = 0; i < width_; ++i) {
    std::uint64_t* row = &beaten_by_[static_cast<std::size_t>(i) * words_];
    for (std::size_t w = 0; w < words_; ++w) {
      const int below = i - static_cast<int>(w * 64);
      row[w] = below >= 64  ? ~std::uint64_t{0}
               : below <= 0 ? 0
                            : (std::uint64_t{1} << below) - 1;
    }
  }
}

int Arbiter::grant_matrix(const std::uint64_t* requests) {
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

}  // namespace sctm::enoc
