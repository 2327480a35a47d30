// SSAM 3D stencil kernel (paper Section 4.9).
//
// A block of WZ warps covers WZ consecutive z-planes of a 3D sub-grid with
// overlapped blocking in z: the outer rz warps on each side are halo warps.
// Every warp caches its plane's rows in registers, runs one systolic column
// sweep per z-offset group of the plan, keeps the dz = 0 partial sums in
// registers, and publishes the dz != 0 partial sums to shared memory — the
// only inter-warp communication (shuffles stay intra-warp, as the paper
// requires). After __syncthreads, interior warps combine their own dz = 0
// sums with neighbours' published sums and store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/grid.hpp"
#include "core/dgraph.hpp"
#include "core/kernel_common.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/stream.hpp"
#include "rcache/blocking.hpp"
#include "rcache/register_cache.hpp"

namespace ssam::core {

struct Stencil3DOptions {
  int p = 2;      ///< sliding-window outputs per thread (rows)
  int warps = 8;  ///< planes per block
};

[[nodiscard]] inline int stencil3d_ssam_regs(int rows_halo, int p, int passes) {
  return (p + rows_halo) + p * passes + 12;
}

/// Shared memory one block's published dz != 0 partial sums take: a slot of
/// `rows` 32-lane rows per (warp, off-plane pass), one slot when the plan has
/// no off-plane pass (kMaxBlockRegRows is the register-side bound).
template <typename T>
[[nodiscard]] std::int64_t published_smem_bytes(int warps, int n_off, int rows) {
  return static_cast<std::int64_t>(warps) * std::max(1, n_off) * rows * sim::kWarpSize *
         static_cast<std::int64_t>(sizeof(T));
}

/// Rejects published partial sums above the per-block shared memory at
/// setup, with the ResourceError `alloc_smem` would raise — but on the
/// calling thread, where a pool worker inside the launch could only abort.
template <typename T>
void require_published_smem(const sim::ArchSpec& arch, int warps, int n_off, int rows) {
  const std::int64_t bytes = published_smem_bytes<T>(warps, n_off, rows);
  if (bytes > arch.smem_per_block) {
    throw ResourceError("3D partial sums need " + std::to_string(bytes) +
                        " bytes of shared memory per block, above the per-block limit (" +
                        std::to_string(arch.smem_per_block) + ")");
  }
}

/// Published rows per slot that fit `arch`'s per-block shared memory (the
/// bound resolve_p takes for a 3D run). Called before the setups reject a
/// block of no warps, hence the floor.
template <typename T>
[[nodiscard]] int published_smem_rows(const sim::ArchSpec& arch, int warps, int n_off) {
  return static_cast<int>(std::min<std::int64_t>(
      arch.smem_per_block / published_smem_bytes<T>(std::max(warps, 1), n_off, 1),
      kMaxRegCacheRows));
}

/// Off-plane (dz != 0) passes of a 3D plan: one published slot each.
template <typename T>
[[nodiscard]] int off_plane_passes(const SystolicPlan<T>& plan) {
  return static_cast<int>(std::count_if(plan.passes.begin(), plan.passes.end(),
                                         [](const ColumnPass<T>& p) { return p.dz != 0; }));
}

namespace detail {

/// Validated geometry, launch config, and *owned* pass schedule shared by
/// the sync and async entry points. Owning copies of the passes (rather
/// than pointers into the caller's plan) is what makes the body
/// stream-safe.
template <typename T>
struct Stencil3dSetup {
  Blocking2D geom;
  Blocking3D geom3;
  sim::LaunchConfig cfg;
  int dy_min = 0;
  int anchor = 0;
  int n_off = 0;
  int vp = 0;
  Index nx = 0;
  Index ny = 0;
  Index nz = 0;
  /// Output z-window of the sweep. Full-grid entry points cover [0, nz);
  /// the persistent iteration engine (core/iterate_persistent.hpp) shifts
  /// the origin into a tile's residence buffer and stores only the band
  /// planes [z_store_lo, z_store_hi), shrinking `cfg.grid.z` to match.
  Index z_origin = 0;
  Index z_store_lo = 0;
  Index z_store_hi = 0;  ///< set to nz by stencil3d_setup
  /// Added to the store plane only — lets the engine's fused first/last
  /// sweeps read one array (global grid or residence buffer) and store into
  /// the other without an intermediate copy.
  Index z_store_offset = 0;
  bool has_center = false;
  std::vector<ColumnPass<T>> off_passes;  ///< dz != 0 passes, by value
  /// Every pass as one schedule: the dz = 0 pass first (if any), then the
  /// off passes in order. Shared by every body built from this setup.
  std::shared_ptr<const sim::TapSchedule<T>> sweep;
};

/// The plan's passes as one schedule, the dz = 0 pass first (the order the
/// 3D kernels issue them in); returns whether the plan has a dz = 0 pass
/// and collects the dz != 0 passes into `off_passes`.
template <typename T>
bool compile_3d_passes(const SystolicPlan<T>& plan,
                       std::shared_ptr<const sim::TapSchedule<T>>& sweep,
                       std::vector<ColumnPass<T>>& off_passes) {
  auto sched = std::make_shared<sim::TapSchedule<T>>();
  bool has_center = false;
  for (const ColumnPass<T>& p : plan.passes) {
    if (p.dz == 0) {
      sched->append(*p.sweep);
      has_center = true;
    }
  }
  for (const ColumnPass<T>& p : plan.passes) {
    if (p.dz != 0) {
      sched->append(*p.sweep);
      off_passes.push_back(p);
    }
  }
  sweep = std::move(sched);
  return has_center;
}

template <typename T>
[[nodiscard]] Stencil3dSetup<T> stencil3d_setup(const sim::ArchSpec& arch,
                                                const GridView3D<const T>& in,
                                                const SystolicPlan<T>& plan,
                                                const Stencil3DOptions& opt) {
  const int rz = plan.rz();
  SSAM_REQUIRE(opt.warps > 2 * rz, "need more warps than z halo planes");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  SSAM_REQUIRE(opt.warps * opt.p <= kMaxBlockRegRows,
               "per-block partial-sum state exceeds the inline bound");
  require_reg_cache_rows(opt.p + plan.rows_halo());
  require_published_smem<T>(arch, opt.warps, off_plane_passes(plan), opt.p);
  Stencil3dSetup<T> s;
  s.nx = in.nx();
  s.ny = in.ny();
  s.nz = in.nz();

  // In-plane geometry, anchored at the global dx extremes.
  s.geom.span = plan.span();
  s.geom.dx_min = plan.dx_min;
  s.geom.rows_halo = plan.rows_halo();
  s.geom.p = opt.p;
  s.geom.block_threads = opt.warps * sim::kWarpSize;

  s.geom3.plane = s.geom;
  s.geom3.rz = rz;
  s.geom3.warps = opt.warps;

  // Off-plane passes (dz != 0) publish P rows of 32 lanes each to smem.
  s.has_center = compile_3d_passes(plan, s.sweep, s.off_passes);
  s.n_off = static_cast<int>(s.off_passes.size());

  s.cfg.grid = s.geom3.grid(s.nx, s.ny, s.nz);
  s.cfg.block_threads = s.geom3.block_threads();
  s.cfg.regs_per_thread =
      stencil3d_ssam_regs(s.geom.rows_halo, opt.p, static_cast<int>(plan.passes.size()));

  s.dy_min = plan.dy_min;
  s.anchor = plan.anchor_dx;
  s.vp = s.geom3.valid_planes();
  s.z_store_hi = s.nz;
  return s;
}

/// Mode-generic 3D stencil body. The setup (including the owned passes) is
/// captured by value, so the body outlives the caller's plan.
template <typename T>
[[nodiscard]] auto make_stencil3d_body(Stencil3dSetup<T> setup, GridView3D<const T> in,
                                       GridView3D<T> out) {
  return [s = std::move(setup), in, out](auto& blk) {
    const Blocking2D& geom = s.geom;
    const Blocking3D& geom3 = s.geom3;
    const std::vector<ColumnPass<T>>& off_passes = s.off_passes;
    const int first_off = s.has_center ? 1 : 0;  // schedule pass of off pass 0
    const int dy_min = s.dy_min;
    const int anchor = s.anchor;
    const int n_off = s.n_off;
    const int vp = s.vp;
    const Index nx = s.nx;
    const Index ny = s.ny;
    const Index nz = s.nz;
    const int warps = geom3.warps;
    const int p = geom.p;
    const int smem_elems = warps * std::max(1, n_off) * p * sim::kWarpSize;
    Smem<T> published = blk.template alloc_smem<T>(smem_elems);
    auto smem_base = [&](int warp, int slot, int i) {
      return ((warp * std::max(1, n_off) + slot) * p + i) * sim::kWarpSize;
    };

    const Index col0 = geom.lane0_col(blk.id().x);  // one warp stripe per block in x
    const Index row0 = static_cast<Index>(blk.id().y) * p + dy_min;
    const Index z_first =
        s.z_origin + static_cast<Index>(blk.id().z) * vp - geom3.rz;

    // Per-warp dz=0 partial sums kept across the barrier, flattened to
    // [warp * p + i] in a fixed inline buffer (registers, not heap).
    InlineVec<Reg<T>, kMaxBlockRegRows> center_sum(warps * p);

    // Phase 1: every warp computes all passes for its plane.
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      Index pz = z_first + w;
      pz = pz < 0 ? 0 : (pz >= nz ? nz - 1 : pz);  // replicate border in z
      const GridView2D<const T> plane = in.slice(pz);

      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(plane, col0, row0);

      // The dz = 0 pass stays in registers; dz != 0 passes go to shared
      // memory.
      if (!s.has_center) {
        for (int i = 0; i < p; ++i) center_sum[w * p + i] = wc.uniform(T{});
      }
      wc.systolic_sweep(rc.rows(), p, *s.sweep, [&](int k, int i, const Reg<T>& sum) {
        if (k < first_off) {
          center_sum[w * p + i] = sum;
          return;
        }
        wc.store_shared_row(published, smem_base(w, k - first_off, i), sum);
      });
    }
    blk.sync();

    // Phase 2: interior warps accumulate neighbours' contributions and store.
    for (int w = geom3.rz; w < warps - geom3.rz; ++w) {
      auto& wc = blk.warp(w);
      const Index pz = z_first + w;
      if (pz < s.z_store_lo || pz >= s.z_store_hi) continue;

      const GridView2D<T> plane{out.data() + (pz + s.z_store_offset) * ny * nx, nx, ny,
                                nx};
      store_valid_rows(wc, plane, col0 - anchor, static_cast<Index>(blk.id().y) * p, p,
                       geom.span, [&](int i) {
                         Reg<T> sum = center_sum[w * p + i];
                         for (int op = 0; op < n_off; ++op) {
                           const ColumnPass<T>& pass = off_passes[static_cast<std::size_t>(op)];
                           const int producer = w + pass.dz;  // S_dz(z + dz) lives there
                           sum = wc.add_shared_shifted(sum, published,
                                                       smem_base(producer, op, i),
                                                       anchor - pass.dx_max);
                         }
                         return sum;
                       });
    }
  };
}

}  // namespace detail

template <typename T>
KernelStats stencil3d_ssam(const sim::ArchSpec& arch, const GridView3D<const T>& in,
                           const SystolicPlan<T>& plan, GridView3D<T> out,
                           const Stencil3DOptions& opt = {},
                           ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  detail::Stencil3dSetup<T> s = detail::stencil3d_setup(arch, in, plan, opt);
  const sim::LaunchConfig cfg = s.cfg;
  auto body = detail::make_stencil3d_body<T>(std::move(s), in, out);
  return sim::launch(arch, cfg, body, mode, sample);
}

template <typename T>
KernelStats stencil3d_ssam(const sim::ArchSpec& arch, const GridView3D<const T>& in,
                           const StencilShape<T>& shape, GridView3D<T> out,
                           const Stencil3DOptions& opt = {},
                           ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  return stencil3d_ssam(arch, in, build_plan(shape.taps), out, opt, mode, sample);
}

/// Enqueues the 3D stencil sweep on `stream`; the pass schedule is copied
/// into the op, `in`/`out` storage must outlive synchronization.
template <typename T>
sim::Event stencil3d_ssam_async(sim::Stream& stream, const sim::ArchSpec& arch,
                                const GridView3D<const T>& in, const SystolicPlan<T>& plan,
                                GridView3D<T> out, const Stencil3DOptions& opt = {}) {
  detail::Stencil3dSetup<T> s = detail::stencil3d_setup(arch, in, plan, opt);
  const sim::LaunchConfig cfg = s.cfg;
  return stream.launch(arch, cfg, detail::make_stencil3d_body<T>(std::move(s), in, out));
}

}  // namespace ssam::core
