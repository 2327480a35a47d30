// Dense 2D/3D grids and borrowing views.
//
// Grids are row-major with x (width) fastest. Views are cheap, non-owning
// and carry the border policy used by out-of-domain reads, mirroring how the
// GPU kernels in the paper clamp their halo loads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "common/zeroed_array.hpp"

namespace ssam {

namespace detail {
[[nodiscard]] constexpr Index clamp_index(Index v, Index n) {
  return v < 0 ? 0 : (v >= n ? n - 1 : v);
}

/// Element count of a grid of `extents`, checked before anything is
/// allocated: every extent must be positive, and the element and byte
/// counts must fit Index (so they fit size_t too).
template <typename T>
[[nodiscard]] std::size_t grid_elems(std::initializer_list<Index> extents) {
  auto named = [&] {
    std::string s;
    for (Index e : extents) s += (s.empty() ? "" : " x ") + std::to_string(e);
    return s;
  };
  for (Index e : extents) SSAM_REQUIRE(e > 0, "grid extents must be positive, got " + named());
  Index n = 1;
  for (Index e : extents) {
    SSAM_REQUIRE(n <= std::numeric_limits<Index>::max() / e,
                 "grid of " + named() + " elements overflows the element count");
    n *= e;
  }
  SSAM_REQUIRE(n <= std::numeric_limits<Index>::max() / static_cast<Index>(sizeof(T)),
               "grid of " + named() + " elements overflows the byte count");
  return static_cast<std::size_t>(n);
}
}  // namespace detail

/// Non-owning view of a 2D row-major grid.
template <typename T>
class GridView2D {
 public:
  GridView2D() = default;
  GridView2D(T* data, Index width, Index height, Index pitch)
      : data_(data), width_(width), height_(height), pitch_(pitch) {}

  [[nodiscard]] Index width() const { return width_; }
  [[nodiscard]] Index height() const { return height_; }
  [[nodiscard]] Index pitch() const { return pitch_; }
  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] Index size() const { return width_ * height_; }

  [[nodiscard]] T& at(Index x, Index y) const { return data_[y * pitch_ + x]; }

  /// Border-policy read: out-of-domain coordinates are clamped or read as 0.
  [[nodiscard]] T read(Index x, Index y, Border border) const {
    if (x >= 0 && x < width_ && y >= 0 && y < height_) return at(x, y);
    if (border == Border::kZero) return T{0};
    return at(detail::clamp_index(x, width_), detail::clamp_index(y, height_));
  }

  /// Flat element index of (x, y) after border resolution (clamp only).
  [[nodiscard]] Index flat_clamped(Index x, Index y) const {
    return detail::clamp_index(y, height_) * pitch_ + detail::clamp_index(x, width_);
  }

 private:
  T* data_ = nullptr;
  Index width_ = 0;
  Index height_ = 0;
  Index pitch_ = 0;
};

/// Non-owning view of a 3D row-major grid (x fastest, then y, then z).
template <typename T>
class GridView3D {
 public:
  GridView3D() = default;
  GridView3D(T* data, Index nx, Index ny, Index nz)
      : data_(data), nx_(nx), ny_(ny), nz_(nz) {}

  [[nodiscard]] Index nx() const { return nx_; }
  [[nodiscard]] Index ny() const { return ny_; }
  [[nodiscard]] Index nz() const { return nz_; }
  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] Index size() const { return nx_ * ny_ * nz_; }

  [[nodiscard]] T& at(Index x, Index y, Index z) const {
    return data_[(z * ny_ + y) * nx_ + x];
  }

  [[nodiscard]] T read(Index x, Index y, Index z, Border border) const {
    if (x >= 0 && x < nx_ && y >= 0 && y < ny_ && z >= 0 && z < nz_) return at(x, y, z);
    if (border == Border::kZero) return T{0};
    return at(detail::clamp_index(x, nx_), detail::clamp_index(y, ny_),
              detail::clamp_index(z, nz_));
  }

  [[nodiscard]] Index flat_clamped(Index x, Index y, Index z) const {
    return (detail::clamp_index(z, nz_) * ny_ + detail::clamp_index(y, ny_)) * nx_ +
           detail::clamp_index(x, nx_);
  }

  /// 2D slice at depth z.
  [[nodiscard]] GridView2D<T> slice(Index z) const {
    return GridView2D<T>(data_ + z * ny_ * nx_, nx_, ny_, nx_);
  }

 private:
  T* data_ = nullptr;
  Index nx_ = 0;
  Index ny_ = 0;
  Index nz_ = 0;
};

/// Owning 2D grid. A fresh grid holds `value` in every cell; its storage
/// is zeroed on allocation (common/zeroed_array.hpp), so a value whose bits
/// are all zero costs no write. Copies are deep.
template <typename T>
class Grid2D {
 public:
  Grid2D() = default;
  Grid2D(Index width, Index height, T value = T{})
      : width_(width), height_(height),
        storage_(detail::grid_elems<T>({width, height})) {
    if (!all_zero_bits(value)) fill(value);
  }

  [[nodiscard]] Index width() const { return width_; }
  [[nodiscard]] Index height() const { return height_; }
  [[nodiscard]] Index size() const { return width_ * height_; }
  [[nodiscard]] T* data() { return storage_.data(); }
  [[nodiscard]] const T* data() const { return storage_.data(); }

  [[nodiscard]] T& at(Index x, Index y) { return storage_[static_cast<std::size_t>(y * width_ + x)]; }
  [[nodiscard]] const T& at(Index x, Index y) const {
    return storage_[static_cast<std::size_t>(y * width_ + x)];
  }

  [[nodiscard]] GridView2D<T> view() { return {storage_.data(), width_, height_, width_}; }
  [[nodiscard]] GridView2D<const T> view() const {
    return {storage_.data(), width_, height_, width_};
  }
  /// Read-only view regardless of this grid's constness.
  [[nodiscard]] GridView2D<const T> cview() const {
    return {storage_.data(), width_, height_, width_};
  }

  void fill(T v) { std::fill(storage_.data(), storage_.data() + storage_.size(), v); }

 private:
  Index width_ = 0;
  Index height_ = 0;
  ZeroedArray<T> storage_;
};

/// Owning 3D grid, with Grid2D's storage contract.
template <typename T>
class Grid3D {
 public:
  Grid3D() = default;
  Grid3D(Index nx, Index ny, Index nz, T value = T{})
      : nx_(nx), ny_(ny), nz_(nz), storage_(detail::grid_elems<T>({nx, ny, nz})) {
    if (!all_zero_bits(value)) fill(value);
  }

  [[nodiscard]] Index nx() const { return nx_; }
  [[nodiscard]] Index ny() const { return ny_; }
  [[nodiscard]] Index nz() const { return nz_; }
  [[nodiscard]] Index size() const { return nx_ * ny_ * nz_; }
  [[nodiscard]] T* data() { return storage_.data(); }
  [[nodiscard]] const T* data() const { return storage_.data(); }

  [[nodiscard]] T& at(Index x, Index y, Index z) {
    return storage_[static_cast<std::size_t>((z * ny_ + y) * nx_ + x)];
  }
  [[nodiscard]] const T& at(Index x, Index y, Index z) const {
    return storage_[static_cast<std::size_t>((z * ny_ + y) * nx_ + x)];
  }

  [[nodiscard]] GridView3D<T> view() { return {storage_.data(), nx_, ny_, nz_}; }
  [[nodiscard]] GridView3D<const T> view() const { return {storage_.data(), nx_, ny_, nz_}; }
  /// Read-only view regardless of this grid's constness.
  [[nodiscard]] GridView3D<const T> cview() const { return {storage_.data(), nx_, ny_, nz_}; }

  void fill(T v) { std::fill(storage_.data(), storage_.data() + storage_.size(), v); }

 private:
  Index nx_ = 0;
  Index ny_ = 0;
  Index nz_ = 0;
  ZeroedArray<T> storage_;
};

}  // namespace ssam
