// SSAM 3D temporal blocking: t fused time steps with partial sums living in
// registers, using shared memory only for the per-step inter-warp z
// exchange (the same communication split as the single-step 3D kernel of
// Section 4.9).
//
// A block of WZ warps holds WZ consecutive z-planes in register caches.
// Each fused step:
//   1. every still-valid warp runs one systolic column sweep per z-offset
//      group over its current register rows, publishing the dz != 0 partial
//      sums to shared memory;
//   2. after the barrier, warps that still have valid z neighbours combine
//      their dz = 0 sums with neighbours' published sums, producing the next
//      level's register rows.
// Validity shrinks every step: rz planes per side (z), `span` lanes (x),
// dy-span rows (y) — the 3D generalization of the 2D ghost-zone scheme.
//
// Structured as setup + body maker (like stencil3d.hpp) so the persistent
// iteration engine (core/iterate_persistent.hpp) can build an owned body
// once per tile and replay it inline on the tile's owner worker.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/stencil3d.hpp"

namespace ssam::core {

struct Temporal3DOptions {
  int t = 2;
  int p = 2;
  int warps = 8;  ///< planes per block; must exceed 2*t*rz
};

[[nodiscard]] inline int stencil3d_ssam_temporal_regs(int rows_halo, int t, int p,
                                                      int passes) {
  const int c0 = p + t * rows_halo;
  return 2 * c0 + p * passes + 12;
}

namespace detail {

/// Output z-window of a temporal 3D sweep: planes [origin, origin + count)
/// are stored. The full-grid entry point covers the whole volume; the
/// persistent iteration engine shifts the origin into a tile's residence
/// buffer and stores only the band planes.
struct ZWindow3 {
  Index origin = 0;
  Index count = -1;  ///< -1: the input's full nz
};

/// Validated geometry, launch config, and owned pass schedule of a temporal
/// 3D sweep (owning the passes keeps the body self-contained).
template <typename T>
struct Temporal3DSetup {
  Blocking2D geom;
  sim::LaunchConfig cfg;
  int t = 1;
  int rz = 0;
  int vp = 0;  ///< valid output planes per block
  int n_off = 0;
  int dy_min = 0;
  int anchor = 0;
  int dy_span = 0;
  Index nx = 0;
  Index ny = 0;
  Index nz = 0;
  Index z_lo = 0;  ///< first stored plane
  Index z_hi = 0;  ///< one past the last stored plane
  /// Added to the store plane only (fused first/last sweeps of the
  /// persistent engine store across arrays).
  Index z_store_offset = 0;
  bool has_center = false;
  std::vector<ColumnPass<T>> off_passes;
  std::shared_ptr<const sim::TapSchedule<T>> sweep;  ///< see compile_3d_passes
};

template <typename T>
[[nodiscard]] Temporal3DSetup<T> stencil3d_temporal_setup(const sim::ArchSpec& arch,
                                                          const GridView3D<const T>& in,
                                                          const SystolicPlan<T>& plan,
                                                          const Temporal3DOptions& opt,
                                                          ZWindow3 win = {}) {
  Temporal3DSetup<T> s;
  s.rz = plan.rz();
  s.t = opt.t;
  const int span = plan.span();
  s.dy_span = plan.rows_halo();
  SSAM_REQUIRE(s.t >= 1, "need at least one step");
  SSAM_REQUIRE(opt.warps > 2 * s.t * s.rz, "z block too shallow for t fused steps");
  SSAM_REQUIRE(sim::kWarpSize - s.t * span >= 8, "too many fused steps for one warp");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  require_reg_cache_rows(opt.p + s.t * s.dy_span);
  SSAM_REQUIRE(opt.warps * (opt.p + s.t * s.dy_span) <= kMaxBlockRegRows,
               "per-block register level state exceeds the inline bound");
  // The largest published level has P + (t - 1) * dy_span rows.
  require_published_smem<T>(arch, opt.warps, off_plane_passes(plan),
                            opt.p + (s.t - 1) * s.dy_span);
  s.nx = in.nx();
  s.ny = in.ny();
  s.nz = in.nz();

  s.geom.span = s.t * span;
  s.geom.dx_min = s.t * plan.dx_min;
  s.geom.rows_halo = s.t * s.dy_span;
  s.geom.p = opt.p;
  s.geom.block_threads = opt.warps * sim::kWarpSize;

  s.has_center = compile_3d_passes(plan, s.sweep, s.off_passes);
  s.n_off = static_cast<int>(s.off_passes.size());
  s.vp = opt.warps - 2 * s.t * s.rz;  // valid output planes per block
  s.z_lo = win.origin;
  s.z_hi = win.origin + (win.count < 0 ? s.nz : win.count);

  s.cfg.grid = Dim3{static_cast<int>(ceil_div(s.nx, s.geom.valid_cols())),
                    static_cast<int>(ceil_div(s.ny, opt.p)),
                    static_cast<int>(ceil_div(s.z_hi - s.z_lo, s.vp))};
  s.cfg.block_threads = s.geom.block_threads;
  s.cfg.regs_per_thread = stencil3d_ssam_temporal_regs(
      s.dy_span, s.t, opt.p, static_cast<int>(plan.passes.size()));

  s.dy_min = plan.dy_min;
  s.anchor = plan.anchor_dx;
  return s;
}

/// Mode-generic temporal 3D body. The setup (including the owned passes) is
/// captured by value, so the body outlives the caller's plan.
template <typename T>
[[nodiscard]] auto make_stencil3d_temporal_body(Temporal3DSetup<T> setup,
                                                GridView3D<const T> in,
                                                GridView3D<T> out) {
  return [s = std::move(setup), in, out](auto& blk) {
    const Blocking2D& geom = s.geom;
    const std::vector<ColumnPass<T>>& off_passes = s.off_passes;
    const int first_off = s.has_center ? 1 : 0;  // schedule pass of off pass 0
    const int t = s.t;
    const int rz = s.rz;
    const int vp = s.vp;
    const int n_off = s.n_off;
    const int dy_min = s.dy_min;
    const int anchor = s.anchor;
    const int dy_span = s.dy_span;
    const Index nx = s.nx;
    const Index ny = s.ny;
    const Index nz = s.nz;
    const int warps = blk.warp_count();
    const int p = geom.p;
    // Largest published level: rows at level 1 = C0 - dy_span.
    const int c0 = p + t * dy_span;
    const int max_rows = std::max(1, c0 - dy_span);
    Smem<T> published = blk.template alloc_smem<T>(warps * std::max(1, n_off) * max_rows *
                                                   sim::kWarpSize);
    auto smem_base = [&](int warp, int slot, int row) {
      return ((warp * std::max(1, n_off) + slot) * max_rows + row) * sim::kWarpSize;
    };

    const Index col0 = geom.lane0_col(blk.id().x);
    const Index row0 = static_cast<Index>(blk.id().y) * p +
                       static_cast<Index>(t) * dy_min;
    const Index z_first = s.z_lo + static_cast<Index>(blk.id().z) * vp -
                          static_cast<Index>(t) * rz;

    // Per-warp register state across barriers: the current level's rows,
    // flattened to [warp * c0 + row] in fixed inline buffers. Rows per warp
    // shrink every fused step; the stride stays c0.
    InlineVec<Reg<T>, kMaxBlockRegRows> level(warps * c0);
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      Index pz = z_first + w;
      pz = pz < 0 ? 0 : (pz >= nz ? nz - 1 : pz);
      auto rc = make_register_cache<T>(wc, c0);
      rc.load_rows(in.slice(pz), col0, row0);
      for (int r = 0; r < c0; ++r) level[w * c0 + r] = rc.row(r);
    }

    InlineVec<Reg<T>, kMaxBlockRegRows> center_sums(warps * c0);
    for (int step = 0; step < t; ++step) {
      const int rows_next = c0 - (step + 1) * dy_span;
      // Producers this step: warps whose level-`step` rows are valid.
      const int w_lo = step * rz;
      const int w_hi = warps - 1 - step * rz;
      for (int w = w_lo; w <= w_hi; ++w) {
        auto& wc = blk.warp(w);
        if (!s.has_center) {
          for (int r = 0; r < rows_next; ++r) center_sums[w * c0 + r] = wc.uniform(T{});
        }
        wc.systolic_sweep(&level[w * c0], rows_next, *s.sweep,
                          [&](int k, int r, const Reg<T>& sum) {
                            if (k < first_off) {
                              center_sums[w * c0 + r] = sum;
                              return;
                            }
                            wc.store_shared_row(published, smem_base(w, k - first_off, r),
                                                sum);
                          });
      }
      blk.sync();

      // Consumers: warps valid at level `step`+1 combine neighbours' sums.
      const int c_lo = (step + 1) * rz;
      const int c_hi = warps - 1 - (step + 1) * rz;
      for (int w = c_lo; w <= c_hi; ++w) {
        auto& wc = blk.warp(w);
        // The next level only reads center_sums and shared memory, never the
        // current rows, so it can overwrite level[w] in place.
        for (int r = 0; r < rows_next; ++r) {
          Reg<T> sum = center_sums[w * c0 + r];
          for (int slot = 0; slot < n_off; ++slot) {
            const ColumnPass<T>& pass = off_passes[static_cast<std::size_t>(slot)];
            const int producer = w + pass.dz;
            sum = wc.add_shared_shifted(sum, published, smem_base(producer, slot, r),
                                        anchor - pass.dx_max);
          }
          level[w * c0 + r] = sum;
        }
      }
      if (step + 1 < t) blk.sync();  // published buffer is reused next step
    }

    // Store: interior warps, P rows each, lanes >= t*span.
    for (int w = t * rz; w < warps - t * rz; ++w) {
      auto& wc = blk.warp(w);
      const Index pz = z_first + w;
      if (pz < s.z_lo || pz >= s.z_hi) continue;
      const GridView2D<T> plane{out.data() + (pz + s.z_store_offset) * ny * nx, nx, ny,
                                nx};
      store_valid_rows(wc, plane, col0 - static_cast<Index>(t) * anchor,
                       static_cast<Index>(blk.id().y) * p, p, geom.span,
                       [&](int i) -> const Reg<T>& { return level[w * c0 + i]; });
    }
  };
}

}  // namespace detail

template <typename T>
KernelStats stencil3d_ssam_temporal(const sim::ArchSpec& arch,
                                    const GridView3D<const T>& in,
                                    const SystolicPlan<T>& plan, GridView3D<T> out,
                                    const Temporal3DOptions& opt = {},
                                    ExecMode mode = ExecMode::kFunctional,
                                    SampleSpec sample = {}) {
  detail::Temporal3DSetup<T> s = detail::stencil3d_temporal_setup(arch, in, plan, opt);
  const sim::LaunchConfig cfg = s.cfg;
  auto body = detail::make_stencil3d_temporal_body<T>(std::move(s), in, out);
  return sim::launch(arch, cfg, body, mode, sample);
}

template <typename T>
KernelStats stencil3d_ssam_temporal(const sim::ArchSpec& arch,
                                    const GridView3D<const T>& in,
                                    const StencilShape<T>& shape, GridView3D<T> out,
                                    const Temporal3DOptions& opt = {},
                                    ExecMode mode = ExecMode::kFunctional,
                                    SampleSpec sample = {}) {
  return stencil3d_ssam_temporal(arch, in, build_plan(shape.taps), out, opt, mode, sample);
}

}  // namespace ssam::core
