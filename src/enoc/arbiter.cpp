#include "enoc/arbiter.hpp"

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

}  // namespace sctm::enoc
