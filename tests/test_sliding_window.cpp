// Sliding-window suite: the run-level choice of P (resolve_p in
// rcache/blocking.hpp) and the 3D shared-memory bound it must respect.
//
// P only decides which warp computes which output rows, never how an
// output is computed, so every engine must produce the same bits at every
// legal P. The randomized differential runs each path at the paper's P = 4
// (the reference), at auto P, and at every legal P in {1, 2, 3, 4, 8, 16,
// 24, 32}, and compares the outputs by memcmp.
//
// Randomized axes (seeded; the failing seed is printed and reproduces with
// SSAM_PWIN_CASES=1 SSAM_PWIN_SEED=<seed>): star and box stencils of radius
// 1-3, dual chain stages, t = 1-4, heights 1-70, widths below and above one
// warp, 3D depths 1-20. Paths (cycled by seed): 2D relaunch, 2D persistent,
// 2D sharded(2), 3D relaunch, 3D persistent, fused chain, staged chain and
// conv2d through run_job.
//
// The resolver grid checks that every (t, halo, warps, rows) that is legal at
// P = 4 stays legal at the resolved P. The shared-memory tests pin that a 3D
// block whose published partial sums overflow shared memory fails with a
// ResourceError at setup, on every entry point, instead of aborting a pool
// worker, and that the server reports such a job as failed (kResource).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/chain.hpp"
#include "core/iterate.hpp"
#include "core/iterate_persistent.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil3d_temporal.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
#include "gpusim/stream.hpp"
#include "rcache/blocking.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::bits_equal;

int env_int(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return fallback;
}

/// 160 seeded cases locally (20 per path); sanitizer CI legs pin
/// SSAM_PWIN_CASES.
int total_cases() { return env_int("SSAM_PWIN_CASES", 160); }
std::uint64_t base_seed() {
  return static_cast<std::uint64_t>(env_int("SSAM_PWIN_SEED", 0x9a1d));
}

const sim::ArchSpec& arch() { return sim::tesla_v100(); }

constexpr std::array<int, 8> kWindows = {1, 2, 3, 4, 8, 16, 24, 32};

/// What a run's kernels check about P, restated from the setup checks.
/// warps3d = 0: a 2D kernel.
struct WindowBounds {
  int t = 1;
  int halo = 0;  ///< register-cache halo rows per step
  int warps3d = 0;
  int n_off = 0;  ///< 3D off-plane passes (published slots per warp)
};

bool legal(int p, const WindowBounds& b) {
  if (p < 1 || p > core::kMaxOutputsPerThread) return false;
  if (p + b.t * b.halo > core::kMaxRegCacheRows) return false;
  if (b.warps3d > 0) {
    const int level = b.t > 1 ? b.t * b.halo : 0;
    if (b.warps3d * (p + level) > core::kMaxBlockRegRows) return false;
    const int published = p + (b.t - 1) * b.halo;
    if (core::published_smem_bytes<float>(b.warps3d, b.n_off, published) >
        arch().smem_per_block) {
      return false;
    }
  }
  return true;
}

int resolve(const WindowBounds& b, Index rows) {
  const int smem_rows =
      b.warps3d > 0 ? core::published_smem_rows<float>(arch(), b.warps3d, b.n_off) : 0;
  return core::resolve_p(b.t, b.halo, rows, b.warps3d, smem_rows);
}

core::StencilShape<float> random_shape2d(SplitMix64& rng, int radius) {
  core::StencilShape<float> s = rng.next_below(2) == 0
                                    ? core::star2d<float>(radius)
                                    : core::box2d<float>(2 * radius + 1, 2 * radius + 1);
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.4, 0.4));
  return s;
}

core::StencilShape<float> random_shape3d(SplitMix64& rng, int radius) {
  core::StencilShape<float> s = core::star3d<float>(radius);
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.3, 0.3));
  return s;
}

int rows_halo(const core::StencilShape<float>& shape) {
  return core::build_plan(shape.taps).rows_halo();
}

core::ChainStage<float> random_stage(SplitMix64& rng) {
  const int radius = 1 + static_cast<int>(rng.next_below(3));
  switch (rng.next_below(3)) {
    case 0:
      return core::ChainStage<float>::stencil(random_shape2d(rng, radius));
    case 1:
      // Temporal stage: radius 1 keeps 32 - t * span >= 8 for t <= 4.
      return core::ChainStage<float>::stencil(random_shape2d(rng, 1),
                                              2 + static_cast<int>(rng.next_below(3)));
    default: {
      core::ChainStage<float> st = core::ChainStage<float>::dual_stencil(
          random_shape2d(rng, radius), random_shape2d(rng, 1),
          [](float a, float b) { return a - 0.25f * b; });
      return rng.next_below(2) == 0 ? st : st.with_map([](float v) { return 1.5f * v; });
    }
  }
}

enum class Path { k2dRelaunch, k2dPersistent, k2dSharded, k3dRelaunch, k3dPersistent,
                  kChainFused, kChainStaged, kConv };
constexpr std::array<const char*, 8> kPathNames = {
    "2d-relaunch", "2d-persistent", "2d-sharded(2)", "3d-relaunch",
    "3d-persistent", "chain-fused", "chain-staged", "conv2d"};

/// One randomized case: builds its inputs once, then runs the path at any P.
struct Case {
  Path path = Path::k2dRelaunch;
  WindowBounds bounds;
  Index rows = 1;  ///< the domain's extent along the window
  int sweeps = 1;
  core::StencilShape<float> shape;
  std::vector<core::ChainStage<float>> stages;
  std::vector<float> filter;
  int fm = 1;
  int fn = 1;
  Grid2D<float> src2;
  Grid3D<float> src3;
  sim::DeviceGroup* group = nullptr;

  /// Runs the path with PersistentOptions::p / JobHints::p = `p` and returns
  /// the output plus the window the run reported.
  std::pair<std::vector<float>, int> run(int p) const {
    core::PersistentOptions opt;
    opt.p = p;
    opt.t = bounds.t;
    opt.warps3d = bounds.warps3d > 0 ? bounds.warps3d : opt.warps3d;
    opt.policy = path == Path::k2dPersistent || path == Path::k3dPersistent ||
                         path == Path::kChainFused
                     ? core::IterationPolicy::kPersistent
                     : core::IterationPolicy::kRelaunch;
    if (path == Path::k2dSharded) {
      opt.policy = sweeps % 2 == 0 ? core::IterationPolicy::kPersistent
                                   : core::IterationPolicy::kRelaunch;
      opt.shard = core::ShardPolicy::sharded(2, group);
    }
    core::PersistentRunStats st;
    switch (path) {
      case Path::k2dRelaunch:
      case Path::k2dPersistent:
      case Path::k2dSharded: {
        Grid2D<float> a = src2;
        Grid2D<float> b(a.width(), a.height());
        st = core::iterate_stencil2d_persistent<float>(arch(), a, b, shape, sweeps, opt);
        return {std::vector<float>(a.data(), a.data() + a.size()), st.p};
      }
      case Path::k3dRelaunch:
      case Path::k3dPersistent: {
        Grid3D<float> a = src3;
        Grid3D<float> b(a.nx(), a.ny(), a.nz());
        st = core::iterate_stencil3d_persistent<float>(arch(), a, b, shape, sweeps, opt);
        return {std::vector<float>(a.data(), a.data() + a.size()), st.p};
      }
      case Path::kChainFused:
      case Path::kChainStaged: {
        Grid2D<float> out(src2.width(), src2.height());
        st = core::run_chain2d<float>(arch(), src2, out, stages, opt);
        return {std::vector<float>(out.data(), out.data() + out.size()), st.p};
      }
      case Path::kConv: {
        Grid2D<float> in = src2;
        Grid2D<float> out(src2.width(), src2.height());
        core::JobHints hints;
        hints.p = p;
        st = core::run_job(arch(), core::SimJob::conv2d(in, out, filter, fm, fn, hints));
        return {std::vector<float>(out.data(), out.data() + out.size()), st.p};
      }
    }
    return {};
  }
};

Case make_case(std::uint64_t seed, sim::DeviceGroup& group) {
  SplitMix64 rng(seed);
  Case c;
  c.path = static_cast<Path>(seed % kPathNames.size());
  c.group = &group;
  c.sweeps = 1 + static_cast<int>(rng.next_below(3));
  const Index w = 1 + static_cast<Index>(rng.next_below(48));
  const Index h = 1 + static_cast<Index>(rng.next_below(70));
  switch (c.path) {
    case Path::k2dRelaunch:
    case Path::k2dPersistent:
    case Path::k2dSharded: {
      const int radius = 1 + static_cast<int>(rng.next_below(3));
      // t * span <= 24 keeps one warp's valid lanes at 8 or more.
      const int max_t = std::min(4, 12 / radius);
      c.bounds.t = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_t)));
      c.shape = random_shape2d(rng, radius);
      c.bounds.halo = rows_halo(c.shape);
      c.rows = h;
      c.src2 = Grid2D<float>(w, h);
      break;
    }
    case Path::k3dRelaunch:
    case Path::k3dPersistent: {
      const int radius = 1 + static_cast<int>(rng.next_below(2));
      c.shape = random_shape3d(rng, radius);
      c.bounds.halo = rows_halo(c.shape);
      c.bounds.n_off = core::off_plane_passes(core::build_plan(c.shape.taps));
      // Smallest block with valid planes at t steps, plus a little slack;
      // redraw t until the case is legal at the reference P = 4.
      do {
        c.bounds.t = 1 + static_cast<int>(rng.next_below(radius == 1 ? 3 : 2));
        c.bounds.warps3d = 2 * c.bounds.t * radius + 1 + static_cast<int>(rng.next_below(6));
      } while (!legal(4, c.bounds));
      const Index nz = 1 + static_cast<Index>(rng.next_below(20));
      c.rows = h;
      c.src3 = Grid3D<float>(std::min<Index>(w, 40), h, nz);
      break;
    }
    case Path::kChainFused:
    case Path::kChainStaged: {
      const int depth = 2 + static_cast<int>(rng.next_below(3));
      for (int s = 0; s < depth; ++s) {
        c.stages.push_back(random_stage(rng));
        const core::ChainStage<float>& st = c.stages.back();
        c.bounds.halo = std::max(c.bounds.halo, st.t * rows_halo(st.shape));
        if (st.dual()) c.bounds.halo = std::max(c.bounds.halo, rows_halo(st.shape_b));
      }
      c.rows = h;
      c.src2 = Grid2D<float>(w, h);
      break;
    }
    case Path::kConv: {
      c.fm = 1 + 2 * static_cast<int>(rng.next_below(4));
      c.fn = 1 + 2 * static_cast<int>(rng.next_below(4));
      c.filter.resize(static_cast<std::size_t>(c.fm * c.fn));
      for (float& v : c.filter) v = static_cast<float>(rng.next_in(-0.2, 0.2));
      c.bounds.halo = c.fn - 1;
      c.rows = h;
      c.src2 = Grid2D<float>(w, h);
      break;
    }
  }
  if (c.src2.size() > 0) fill_random(c.src2, seed ^ 0x51ed27u);
  if (c.src3.size() > 0) fill_random(c.src3, seed ^ 0x51ed27u);
  return c;
}

// ------------------------------------------------ randomized differential

TEST(SlidingWindow, EveryLegalWindowMatchesThePaperWindowBitForBit) {
  const int cases = total_cases();
  const std::uint64_t seed0 = base_seed();
  sim::DeviceGroup group(
      {sim::DeviceOptions{1, {}, "pwin0"}, sim::DeviceOptions{1, {}, "pwin1"}});
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("window case seed=" + std::to_string(seed) +
                 " (reproduce: SSAM_PWIN_CASES=1 SSAM_PWIN_SEED=" + std::to_string(seed) +
                 ")");
    const Case c = make_case(seed, group);
    const std::string what = std::string(kPathNames[static_cast<std::size_t>(c.path)]) +
                             " t=" + std::to_string(c.bounds.t) +
                             " halo=" + std::to_string(c.bounds.halo) +
                             " warps3d=" + std::to_string(c.bounds.warps3d) +
                             " rows=" + std::to_string(c.rows);
    ASSERT_TRUE(legal(4, c.bounds)) << what;
    const auto [want, p4] = c.run(4);
    ASSERT_EQ(p4, 4) << what;

    const auto [autop, p_auto] = c.run(0);
    EXPECT_EQ(p_auto, resolve(c.bounds, c.rows)) << what;
    ASSERT_TRUE(legal(p_auto, c.bounds)) << what << " auto p=" << p_auto;
    ASSERT_TRUE(bits_equal(want.data(), autop.data(), want.size()))
        << what << " auto p=" << p_auto;

    for (int p : kWindows) {
      if (p == 4 || !legal(p, c.bounds)) continue;
      const auto [got, used] = c.run(p);
      EXPECT_EQ(used, p) << what;
      ASSERT_TRUE(bits_equal(want.data(), got.data(), want.size())) << what << " p=" << p;
    }
  }
}

// ------------------------------------------------------------ resolver grid

TEST(SlidingWindow, EveryShapeLegalAtThePaperWindowStaysLegalAtAuto) {
  long long checked = 0;
  for (int t = 1; t <= 6; ++t) {
    for (int halo = 0; halo <= 62; ++halo) {
      for (int warps : {0, 3, 4, 8, 12, 16, 20, 32}) {
        for (int n_off : {0, 1, 2, 4, 6, 12}) {
          if (warps == 0 && n_off > 0) continue;
          const WindowBounds b{t, halo, warps, n_off};
          for (Index rows : {1, 2, 3, 4, 5, 7, 8, 16, 33, 1000}) {
            const int p = resolve(b, rows);
            const std::string what = "t=" + std::to_string(t) +
                                     " halo=" + std::to_string(halo) +
                                     " warps=" + std::to_string(warps) +
                                     " n_off=" + std::to_string(n_off) +
                                     " rows=" + std::to_string(rows) +
                                     " -> p=" + std::to_string(p);
            ASSERT_GE(p, 1) << what;
            ASSERT_LE(p, std::min<Index>(8 * t, core::kMaxOutputsPerThread)) << what;
            ASSERT_LE(p, std::max<Index>(rows, 1)) << what;
            if (legal(4, b)) {
              ASSERT_TRUE(legal(p, b)) << what;
              ASSERT_GE(p, std::min<Index>(4, rows)) << what;
              ++checked;
            } else if (legal(1, b)) {
              ASSERT_TRUE(legal(p, b)) << what;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(SlidingWindow, AutoIsEightPerFusedStepOnATallGrid) {
  EXPECT_EQ(core::resolve_p(1, 2, 2048), 8);
  EXPECT_EQ(core::resolve_p(2, 2, 2048), 16);
  EXPECT_EQ(core::resolve_p(3, 2, 2048), 24);
  EXPECT_EQ(core::resolve_p(4, 2, 2048), 32);
  EXPECT_EQ(core::resolve_p(8, 2, 2048), 32);  // one warp of outputs
  EXPECT_EQ(core::resolve_p(1, 4, 5), 5);      // a 5-row domain
  EXPECT_EQ(core::resolve_p(1, 60, 2048), 4);  // the register cache binds
  // The 3D star-1 job of a 256x256x128 run: 8 warps, two off-plane passes.
  EXPECT_EQ(core::resolve_p(1, 2, 256, 8, core::published_smem_rows<float>(arch(), 8, 2)),
            8);
}

TEST(SlidingWindow, ExplicitWindowsAreTakenAsGivenAndNegativeOnesRejected) {
  Grid2D<float> a(40, 30, 1.0f);
  Grid2D<float> b(40, 30);
  const core::StencilShape<float> star = core::star2d<float>(1);
  core::PersistentOptions opt;
  opt.p = 3;
  EXPECT_EQ(core::iterate_stencil2d_persistent<float>(arch(), a, b, star, 2, opt).p, 3);
  opt.p = -1;
  EXPECT_THROW((void)core::iterate_stencil2d_persistent<float>(arch(), a, b, star, 2, opt),
               PreconditionError);
  Grid3D<float> a3(16, 12, 10, 1.0f);
  Grid3D<float> b3(16, 12, 10);
  EXPECT_THROW((void)core::iterate_stencil3d_persistent<float>(arch(), a3, b3,
                                                               core::star3d<float>(1), 2, opt),
               PreconditionError);
  const std::vector<core::ChainStage<float>> stages(2, core::ChainStage<float>::stencil(star));
  EXPECT_THROW((void)core::run_chain2d<float>(arch(), a, b, stages, opt), PreconditionError);
  core::JobHints hints;
  hints.p = -2;
  EXPECT_THROW(
      (void)core::run_job(arch(), core::SimJob::conv2d(a, b, std::vector<float>(9, 0.1f), 3,
                                                        3, hints)),
      PreconditionError);
}

// ------------------------------------------- 3D shared-memory bound (setup)

void expect_smem_error(const std::function<void()>& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected a shared-memory ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_NE(std::string(e.what()).find("shared memory"), std::string::npos) << e.what();
  }
}

// Two blocks whose published partial sums overflow V100's 96 KiB at the
// paper's P = 4 (both aborted a pool worker before the setup check):
//  * star3d(3) at 16 warps, t = 2: six off-plane slots of 16 warps x 32 lanes
//    x 4 B = 12 KiB per published row, and the level holds 4 + 6 rows;
//  * star3d(6) at 20 warps, t = 1: twelve slots, 30 KiB per row, 4 rows.
// Auto P fits them in 2 and 3 rows; on P100's 48 KiB the first fits none.

TEST(SharedMemoryBound, EveryThreeDEntryPointRejectsOverflowAtSetup) {
  Grid3D<float> a(32, 16, 24, 1.0f);
  Grid3D<float> b(32, 16, 24);
  const core::StencilShape<float> star3 = core::star3d<float>(3);
  const core::StencilShape<float> star6 = core::star3d<float>(6);
  core::Stencil3DOptions o3;
  o3.p = 4;
  o3.warps = 20;
  expect_smem_error([&] {
    (void)core::stencil3d_ssam<float>(arch(), a.cview(), star6, b.view(), o3);
  });
  expect_smem_error([&] {
    (void)core::stencil3d_ssam<float>(arch(), a.cview(), star6, b.view(), o3,
                                      sim::ExecMode::kTiming);
  });
  expect_smem_error([&] { (void)core::iterate_stencil3d<float>(arch(), a, b, star6, 2, o3); });
  expect_smem_error([&] {
    sim::Stream stream;
    (void)core::stencil3d_ssam_async<float>(stream, arch(), a.cview(),
                                            core::build_plan(star6.taps), b.view(), o3);
  });
  core::Temporal3DOptions t3;
  t3.t = 2;
  t3.p = 4;
  t3.warps = 16;
  expect_smem_error([&] {
    (void)core::stencil3d_ssam_temporal<float>(arch(), a.cview(), star3, b.view(), t3);
  });

  for (core::IterationPolicy policy :
       {core::IterationPolicy::kRelaunch, core::IterationPolicy::kPersistent}) {
    SCOPED_TRACE(policy == core::IterationPolicy::kRelaunch ? "relaunch" : "persistent");
    core::PersistentOptions opt;
    opt.policy = policy;
    opt.t = 2;
    opt.warps3d = 16;
    opt.p = 4;
    expect_smem_error(
        [&] { (void)core::iterate_stencil3d_persistent<float>(arch(), a, b, star3, 2, opt); });
    // No window fits P100's 48 KiB: P = 1 already publishes 1 + 6 rows.
    opt.p = 0;
    expect_smem_error([&] {
      (void)core::iterate_stencil3d_persistent<float>(sim::tesla_p100(), a, b, star3, 2, opt);
    });

    // Auto P fits V100 and matches a P = 1 run bit for bit.
    Grid3D<float> pa = a, pb(32, 16, 24), ra = a, rb(32, 16, 24);
    fill_random(pa, 3);
    ra = pa;
    EXPECT_EQ(core::iterate_stencil3d_persistent<float>(arch(), pa, pb, star3, 2, opt).p, 2);
    opt.p = 1;
    (void)core::iterate_stencil3d_persistent<float>(arch(), ra, rb, star3, 2, opt);
    EXPECT_TRUE(bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(pa.size())));
  }
}

TEST(SharedMemoryBound, OverflowingJobsFailTypedThroughRunJobAndTheServer) {
  Grid3D<float> a(32, 16, 24, 1.0f);
  Grid3D<float> b(32, 16, 24);
  core::JobHints deep;
  deep.t = 2;
  deep.warps3d = 16;
  core::JobHints wide;
  wide.warps3d = 20;

  // Auto P fits both.
  EXPECT_EQ(core::run_job(arch(), core::SimJob::stencil3d(a, b, core::star3d<float>(3), 2,
                                                          deep)).p,
            2);
  EXPECT_EQ(core::run_job(arch(), core::SimJob::stencil3d(a, b, core::star3d<float>(6), 2,
                                                          wide)).p,
            3);
  const core::SimJob no_fit = core::SimJob::stencil3d(a, b, core::star3d<float>(3), 2, deep);
  expect_smem_error([&] { (void)core::run_job(sim::tesla_p100(), no_fit); });

  // The paper's P = 4 overflows both.
  deep.p = 4;
  wide.p = 4;
  const std::vector<core::SimJob> jobs = {
      core::SimJob::stencil3d(a, b, core::star3d<float>(3), 2, deep),
      core::SimJob::stencil3d(a, b, core::star3d<float>(6), 1, wide)};
  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "smem0"}});
  core::ServerOptions so;
  so.group = &group;
  core::SimServer server(so);
  for (const core::SimJob& job : jobs) {
    expect_smem_error([&] { (void)core::run_job(arch(), job); });
    core::JobFuture fut = server.submit(job);
    const core::JobResult& res = fut.wait();
    EXPECT_EQ(res.status, core::JobStatus::kFailed);
    EXPECT_EQ(res.error.code, ErrorCode::kResource);
    EXPECT_NE(res.error.message.find("shared memory"), std::string::npos)
        << res.error.message;
  }
}

}  // namespace
