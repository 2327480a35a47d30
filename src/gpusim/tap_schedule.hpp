// Flat tap schedule of the systolic sweep (paper Figure 2c).
//
// A sweep walks filter columns left to right, shifting each output row's
// partial sum one lane up between columns and multiply-adding the column's
// taps (register-cache row offset, coefficient) into it. A schedule holds
// one or more such passes over the same register-cache rows, flattened into
// three arrays so the lane backends can walk it without pointer chasing:
// the taps, each column's end index, and each pass's end column. Kernels
// compile their stencil or filter into one schedule per plan and share it
// by pointer across every body that runs it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "gpusim/simd/simd.hpp"

namespace ssam::sim {

template <typename T>
class TapSchedule {
 public:
  using Tap = simd::SweepTap<T>;

  /// Opens the next pass; its sums come out separately from other passes'.
  void add_pass() { pass_end_.push_back(static_cast<std::int32_t>(col_end_.size())); }

  /// Opens the next column of the current pass. An empty column still
  /// shifts the partial sum; it only adds no taps.
  void add_column() {
    SSAM_REQUIRE(!pass_end_.empty(), "tap schedule column outside a pass");
    col_end_.push_back(static_cast<std::int32_t>(taps_.size()));
    ++pass_end_.back();
  }

  /// Appends a tap to the current column: output row i accumulates
  /// rows[i + row] * coeff. `slot` is the coefficient's word in a broadcast
  /// shared-memory filter, for kernels whose timing reads it from there.
  void add_tap(int row, T coeff, int slot = 0) {
    SSAM_REQUIRE(!col_end_.empty() && col_end_.size() > pass_begin(passes() - 1),
                 "tap schedule tap outside a column");
    SSAM_REQUIRE(row >= 0, "tap schedule row offsets are non-negative");
    taps_.push_back(Tap{row, slot, coeff});
    ++col_end_.back();
  }

  /// Appends every pass of `other` after this schedule's passes.
  void append(const TapSchedule& other) {
    for (int k = 0; k < other.passes(); ++k) {
      add_pass();
      const simd::SweepPass<T> p = other.pass(k);
      std::int32_t t = p.first;
      for (int c = 0; c < p.columns; ++c) {
        add_column();
        for (; t < p.col_end[c]; ++t) add_tap(p.taps[t].row, p.taps[t].coeff, p.taps[t].slot);
      }
    }
  }

  [[nodiscard]] int passes() const { return static_cast<int>(pass_end_.size()); }
  [[nodiscard]] int tap_count() const { return static_cast<int>(taps_.size()); }

  /// Pass k as the lane backends walk it.
  [[nodiscard]] simd::SweepPass<T> pass(int k) const {
    const std::size_t c0 = pass_begin(k);
    const std::int32_t first = c0 == 0 ? 0 : col_end_[c0 - 1];
    return {taps_.data(), col_end_.data() + c0, first,
            static_cast<int>(pass_end_[static_cast<std::size_t>(k)] - c0)};
  }

  /// The taps of column c of pass k.
  [[nodiscard]] std::span<const Tap> column(int k, int c) const {
    const simd::SweepPass<T> p = pass(k);
    const std::int32_t begin = c == 0 ? p.first : p.col_end[c - 1];
    return {taps_.data() + begin, static_cast<std::size_t>(p.col_end[c] - begin)};
  }

 private:
  [[nodiscard]] std::size_t pass_begin(int k) const {
    return k == 0 ? 0 : static_cast<std::size_t>(pass_end_[static_cast<std::size_t>(k - 1)]);
  }

  std::vector<Tap> taps_;
  std::vector<std::int32_t> col_end_;   ///< per column: one past its last tap
  std::vector<std::int32_t> pass_end_;  ///< per pass: one past its last column
};

}  // namespace ssam::sim
