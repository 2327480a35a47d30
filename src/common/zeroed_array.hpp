// Owning heap array that starts as all-zero bits.
//
// The storage comes from std::calloc, and a copy is malloc + memcpy. glibc
// serves a large calloc block as fresh zero pages from mmap and skips the
// memset, so constructing a 1 GiB array touches no page. Each page is then
// faulted in by the thread that first writes it (a parallel fill, a
// kernel's workers, a tile owner filling its ring slot), not by the thread
// that allocated. A small block costs what malloc + memset costs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ssam {

/// True when every byte of `v` is zero, so a zeroed block already holds it
/// (+0.0f does; -0.0f does not).
template <typename T>
[[nodiscard]] bool all_zero_bits(const T& v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  return std::all_of(bytes, bytes + sizeof(T), [](unsigned char b) { return b == 0; });
}

/// Fixed-size array of `size()` elements, zero bits when constructed.
/// Copies are deep; a moved-from array is empty.
template <typename T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T>, "zeroed storage holds raw elements");

 public:
  ZeroedArray() = default;
  /// `n` elements of zero bits. calloc checks n * sizeof(T) for overflow.
  explicit ZeroedArray(std::size_t n) : size_(n) {
    if (n == 0) return;
    data_ = static_cast<T*>(std::calloc(n, sizeof(T)));
    if (data_ == nullptr) throw std::bad_alloc();
  }

  ZeroedArray(const ZeroedArray& other) : size_(other.size_) {
    if (size_ == 0) return;
    data_ = static_cast<T*>(std::malloc(size_ * sizeof(T)));
    if (data_ == nullptr) throw std::bad_alloc();
    std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  ZeroedArray(ZeroedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

  ZeroedArray& operator=(const ZeroedArray& other) { return *this = ZeroedArray(other); }
  ZeroedArray& operator=(ZeroedArray&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~ZeroedArray() { std::free(data_); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ssam
