// ScratchVector: working space an object reuses across calls (a batch's
// draws, its survivor list) and that carries no state between them.
//
// Copying the owner copies none of it: a copy starts empty and grows on its
// first use, so an instance last fed one large batch copies as cheaply as
// one fed per packet. Copy-assignment keeps the target's own buffer.
#pragma once

#include <cstddef>
#include <vector>

namespace rhhh {

template <class T>
class ScratchVector {
 public:
  ScratchVector() = default;
  ScratchVector(const ScratchVector& /*scratch*/) noexcept {}
  ScratchVector& operator=(const ScratchVector& /*scratch*/) noexcept { return *this; }
  ScratchVector(ScratchVector&&) noexcept = default;
  ScratchVector& operator=(ScratchVector&&) noexcept = default;
  ~ScratchVector() = default;

  /// Room for `n` elements; their values are unspecified.
  [[nodiscard]] T* room(std::size_t n) {
    if (v_.size() < n) v_.resize(n);
    return v_.data();
  }
  [[nodiscard]] const T* data() const noexcept { return v_.data(); }
  /// Elements currently allocated (introspection for tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return v_.capacity(); }

 private:
  std::vector<T> v_;
};

}  // namespace rhhh
