// Overlapped blocking geometry (paper Sections 4.5, 4.7, 5.3).
//
// A warp loads a WarpSize-wide input stripe; after the systolic shifts only
// WarpSize - span lanes hold valid outputs, so consecutive warps overlap by
// `span` columns (the halo lanes of Figure 3). Vertically, each warp loads
// C = P + N - 1 rows to emit P output rows. This header centralizes the
// index bookkeeping and the choice of P for a run (the halo-ratio analysis
// of Section 5.3 lives in perfmodel/latency_model.hpp).
#pragma once

#include <algorithm>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/kernel_common.hpp"
#include "gpusim/vec.hpp"
#include "rcache/register_cache.hpp"

namespace ssam::core {

/// Geometry of the 2D overlapped blocking scheme.
struct Blocking2D {
  int span = 0;      ///< horizontal systolic shifts (M-1 for an M-wide filter)
  int dx_min = 0;    ///< leftmost column offset consumed (-cx for conv)
  int rows_halo = 0; ///< N-1 extra rows per warp
  int p = 4;         ///< outputs per thread (sliding window length)
  int block_threads = 128;

  /// Register cache capacity per thread: C = P + N - 1 (Equation 3).
  [[nodiscard]] int c() const { return p + rows_halo; }

  /// Valid output columns per warp: WarpSize - span.
  [[nodiscard]] int valid_cols() const { return sim::kWarpSize - span; }

  [[nodiscard]] int warps_per_block() const { return block_threads / sim::kWarpSize; }

  /// Grid dimensions for a W x H domain (Section 4.7).
  [[nodiscard]] Dim3 grid(Index width, Index height) const {
    SSAM_REQUIRE(valid_cols() > 0, "filter too wide for one warp");
    Dim3 g;
    g.x = static_cast<int>(
        ceil_div(width, static_cast<long long>(warps_per_block()) * valid_cols()));
    g.y = static_cast<int>(ceil_div(height, p));
    g.z = 1;
    return g;
  }

  /// Input column loaded by lane 0 of global warp index j (blocks*warps).
  [[nodiscard]] Index lane0_col(long long warp_linear) const {
    return static_cast<Index>(warp_linear) * valid_cols() + dx_min;
  }

  /// Top input row loaded by a warp in block row `by` (includes y halo).
  [[nodiscard]] Index top_row(int by, int cy) const {
    return static_cast<Index>(by) * p - cy;
  }
};

/// Geometry of the 3D overlapped blocking scheme (Section 4.9): a block of
/// WZ warps covers WZ consecutive z-planes; the outer rz planes on each side
/// are halo planes whose warps only produce partial sums for the interior.
struct Blocking3D {
  Blocking2D plane;  ///< in-plane geometry (span from the x extents)
  int rz = 1;        ///< z radius
  int warps = 8;     ///< planes per block (= warps per block)

  [[nodiscard]] int valid_planes() const { return warps - 2 * rz; }
  [[nodiscard]] int block_threads() const { return warps * sim::kWarpSize; }

  [[nodiscard]] Dim3 grid(Index nx, Index ny, Index nz) const {
    SSAM_REQUIRE(valid_planes() > 0, "z block too shallow for stencil radius");
    Dim3 g;
    g.x = static_cast<int>(ceil_div(nx, plane.valid_cols()));
    g.y = static_cast<int>(ceil_div(ny, plane.p));
    g.z = static_cast<int>(ceil_div(nz, valid_planes()));
    return g;
  }

  /// Fraction of loaded planes that are halo (z-direction redundancy).
  [[nodiscard]] double z_halo_ratio() const {
    return static_cast<double>(2 * rz) / warps;
  }
};

/// Bound on the flat per-block register state the 3D kernels keep across
/// barriers without heap allocation: warps x P dz = 0 sums for one step,
/// warps x (P + t * dy_span) level rows for t fused steps.
inline constexpr int kMaxBlockRegRows = 320;

/// The sliding window P of a host run when the caller leaves it to the
/// engine. The paper fixes P = 4 because V100 occupancy falls past it; the
/// host engines have no occupancy limit, and a longer window re-reads fewer
/// halo rows per output row ((P + t * halo_rows) / P), so the choice is
/// 8 * t, clamped to every bound the kernels check at setup:
///  * P <= kMaxOutputsPerThread and P + t * halo_rows <= kMaxRegCacheRows;
///  * 3D (warps3d > 0): the per-block register state fits kMaxBlockRegRows,
///    and P + (t - 1) * halo_rows published rows per (warp, off-plane pass)
///    fit the `smem_rows` that shared memory holds;
///  * P <= rows (the domain's extent along the window), and P >= 1.
/// Every bound is monotone in P, so a run that was legal at P = 4 stays
/// legal. Output never depends on P (tests/test_sliding_window.cpp pins
/// that bit for bit), so resolving it never changes a result.
[[nodiscard]] inline int resolve_p(int t, int halo_rows, Index rows, int warps3d = 0,
                                   int smem_rows = 0) {
  t = std::max(t, 1);
  int p = std::min({8 * std::min(t, kMaxOutputsPerThread), kMaxOutputsPerThread,
                    kMaxRegCacheRows - t * halo_rows});
  if (warps3d > 0) {
    const int level_rows = t > 1 ? t * halo_rows : 0;
    p = std::min({p, kMaxBlockRegRows / warps3d - level_rows,
                  smem_rows - (t - 1) * halo_rows});
  }
  if (rows < p) p = static_cast<int>(rows);
  return std::max(p, 1);
}

/// The window a run uses: an explicit `requested` > 0 as given, 0 (auto)
/// through resolve_p. The kernel option structs keep the paper's P = 4;
/// the iteration engines, the chain engine and run_job resolve here.
[[nodiscard]] inline int choose_p(int requested, int t, int halo_rows, Index rows,
                                  int warps3d = 0, int smem_rows = 0) {
  SSAM_REQUIRE(requested >= 0,
               "sliding window P must be positive, or 0 to let the engine choose");
  return requested > 0 ? requested : resolve_p(t, halo_rows, rows, warps3d, smem_rows);
}

}  // namespace ssam::core
