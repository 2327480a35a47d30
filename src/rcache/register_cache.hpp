// Register cache (paper Section 4.2).
//
// Each thread of a warp reserves C registers; jointly the warp holds a
// WarpSize x C register matrix caching a tile of the input. Rows are loaded
// with one fully coalesced global load per row (one element per lane), and
// the sliding window of Section 4.2 walks the rows so neighbouring outputs
// reuse C - 1 of the C cached rows.
//
// The cache is generic over the execution mode of the warp it serves and
// stores its rows inline (no heap allocation), mirroring the fact that on
// the real device these are registers, not memory.
#pragma once

#include <algorithm>
#include <string>

#include "common/grid.hpp"
#include "common/inline_vec.hpp"
#include "gpusim/warp.hpp"

namespace ssam::core {

using sim::Reg;

/// Upper bound on rows a register cache can hold: C = P + N - 1 with the
/// sliding window capped at a full warp (P <= 32) plus filter halo.
inline constexpr int kMaxRegCacheRows = 64;

/// Rejects a register-cache footprint above kMaxRegCacheRows at kernel
/// setup; inside a launch it could only fail as an inline-capacity error.
inline void require_reg_cache_rows(int rows) {
  SSAM_REQUIRE(rows <= kMaxRegCacheRows,
               "sliding window plus halo needs " + std::to_string(rows) +
                   " register-cache rows, above kMaxRegCacheRows (" +
                   std::to_string(kMaxRegCacheRows) + ")");
}

/// The per-warp register cache: a column of C values per lane.
template <typename T, sim::ExecMode M>
class RegisterCache {
 public:
  RegisterCache(sim::WarpContextT<M>& warp, int capacity) : warp_(&warp) {
    SSAM_REQUIRE(capacity > 0, "register cache capacity must be positive");
    rows_.resize(capacity);
  }

  [[nodiscard]] int capacity() const { return rows_.size(); }
  [[nodiscard]] Reg<T>& row(int i) { return rows_[i]; }
  [[nodiscard]] const Reg<T>& row(int i) const { return rows_[i]; }
  /// The cached rows, contiguous (the input of a systolic sweep).
  [[nodiscard]] const Reg<T>* rows() const { return rows_.begin(); }

  /// Loads `capacity()` consecutive rows starting at `row0`; lane l reads
  /// column `col0 + l`. Out-of-domain coordinates are border-resolved by
  /// clamping (replicate), matching the paper's evaluation setup. Timing
  /// mode issues the real op sequence (clamped lane columns, row affine,
  /// coalesced load); functional mode fills each row with one lane-range
  /// load of the clamped source row — an interior warp is simply the case
  /// where every lane falls inside the row. Same values either way.
  void load_rows(const GridView2D<const T>& in, Index col0, Index row0) {
    if constexpr (M == sim::ExecMode::kFunctional) {
      for (int r = 0; r < capacity(); ++r) {
        const Index y = std::clamp<Index>(row0 + r, 0, in.height() - 1);
        sim::Vec<T>::Ops::load_clamped(rows_[r].v.data(), in.data() + y * in.pitch(), col0,
                                       in.width());
      }
    } else {
      sim::WarpContextT<M>& w = *warp_;
      // Column index per lane, clamped once and reused for every row.
      Reg<Index> col = w.clamp(w.template iota<Index>(col0, 1), Index{0}, in.width() - 1);
      for (int r = 0; r < capacity(); ++r) {
        Index y = row0 + r;
        y = y < 0 ? 0 : (y >= in.height() ? in.height() - 1 : y);
        const Reg<Index> idx = w.affine(col, 1, y * in.pitch());
        rows_[r] = w.load_global(in.data(), idx);
      }
    }
  }

  /// Registers this cache costs per thread (for occupancy estimation).
  [[nodiscard]] int registers_per_thread() const { return capacity(); }

 private:
  sim::WarpContextT<M>* warp_;
  InlineVec<Reg<T>, kMaxRegCacheRows> rows_;
};

/// Deduces the execution mode from the warp so mode-generic kernel bodies
/// can write `auto rc = make_register_cache<T>(wc, c);`.
template <typename T, sim::ExecMode M>
[[nodiscard]] RegisterCache<T, M> make_register_cache(sim::WarpContextT<M>& warp,
                                                      int capacity) {
  return RegisterCache<T, M>(warp, capacity);
}

}  // namespace ssam::core
