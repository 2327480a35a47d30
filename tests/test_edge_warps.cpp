// Edge-warp differential suite: functional-mode SSAM kernels against timing
// mode on grids where most or all warps touch the domain edge.
//
// Functional mode fills a warp's register cache with lane-range loads of
// the clamped source rows and drains it with lane-range stores; timing mode
// keeps the per-lane op sequence (clamped lane columns, gathers, predicated
// scatters). Timing mode over a sample that covers every block is therefore
// the oracle: the functional output must match it bit for bit, and neither
// may touch a view's padding.
//
// Randomized axes: widths 1-70 (below, at and above one warp), heights
// 1-12, pitched views whose padding holds a sentinel, sliding windows,
// block sizes, stencil shapes, fused steps, odd filter sizes, chain stage
// mixes (plain, temporal, dual, mapped) and 3D depths. The failing seed is
// printed; SSAM_EDGE_CASES / SSAM_EDGE_SEED reproduce it.
//
// The register-cache capacity tests at the end pin that every entry point
// rejects a sliding window plus halo above kMaxRegCacheRows at setup, with
// a message naming the limit, and that a job asking for one fails typed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/chain.hpp"
#include "core/conv2d.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil2d_temporal.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil3d_temporal.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
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

/// 600 seeded cases locally; sanitizer CI legs pin SSAM_EDGE_CASES=60.
int total_cases() { return env_int("SSAM_EDGE_CASES", 600); }
std::uint64_t base_seed() {
  return static_cast<std::uint64_t>(env_int("SSAM_EDGE_SEED", 0xed6e));
}

constexpr float kSentinel = -7777.25f;  ///< output padding and unwritten cells
constexpr float kPoison = 1.0e30f;      ///< input padding: never read

/// A timing-mode sample covering every block of the launch.
sim::SampleSpec every_block() { return {std::numeric_limits<int>::max(), 1}; }

const sim::ArchSpec& arch() { return sim::tesla_v100(); }

/// A w x h view inside a pitched buffer; the padding columns [w, pitch)
/// hold `pad`.
struct Pitched2D {
  Index w;
  Index h;
  Index pitch;
  std::vector<float> buf;

  Pitched2D(Index width, Index height, Index pitch_, float pad)
      : w(width), h(height), pitch(pitch_), buf(static_cast<std::size_t>(pitch_ * height), pad) {}

  [[nodiscard]] GridView2D<float> view() { return {buf.data(), w, h, pitch}; }
  [[nodiscard]] GridView2D<const float> cview() const { return {buf.data(), w, h, pitch}; }
};

Pitched2D random_input(SplitMix64& rng, Index w, Index h) {
  const Index pitch = w + static_cast<Index>(rng.next_below(3)) * 7;
  Pitched2D in(w, h, pitch, kPoison);
  for (Index y = 0; y < h; ++y) {
    for (Index x = 0; x < w; ++x) {
      in.buf[static_cast<std::size_t>(y * pitch + x)] = static_cast<float>(rng.next_in(-1.0, 1.0));
    }
  }
  return in;
}

/// Functional output == timing output over the whole buffer, padding
/// untouched, every in-domain cell written.
void expect_same_output(const Pitched2D& func, const Pitched2D& timed) {
  ASSERT_TRUE(bits_equal(func.buf.data(), timed.buf.data(), func.buf.size()));
  for (Index y = 0; y < func.h; ++y) {
    for (Index x = 0; x < func.pitch; ++x) {
      const float v = func.buf[static_cast<std::size_t>(y * func.pitch + x)];
      if (x < func.w) {
        ASSERT_NE(v, kSentinel) << "cell (" << x << "," << y << ") never written";
      } else {
        ASSERT_EQ(v, kSentinel) << "padding (" << x << "," << y << ") overwritten";
      }
    }
  }
}

core::StencilShape<float> random_shape2d(SplitMix64& rng) {
  core::StencilShape<float> s;
  switch (rng.next_below(4)) {
    case 0:
      s = core::star2d<float>(1);
      break;
    case 1:
      s = core::star2d<float>(2);
      break;
    case 2:
      s = core::box2d<float>(3, 3);
      break;
    default:
      s = core::box2d<float>(5, 3);
      break;
  }
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.5, 0.5));
  return s;
}

int random_p(SplitMix64& rng) { return 1 + static_cast<int>(rng.next_below(8)); }
int random_block_threads(SplitMix64& rng) { return 32 << rng.next_below(3); }

// ------------------------------------------------------------ 2D kernels

void check_stencil2d(SplitMix64& rng, Index w, Index h) {
  const Pitched2D in = random_input(rng, w, h);
  const core::StencilShape<float> shape = random_shape2d(rng);
  const core::StencilOptions opt{random_p(rng), random_block_threads(rng)};
  Pitched2D func(w, h, in.pitch, kSentinel);
  Pitched2D timed = func;
  core::stencil2d_ssam<float>(arch(), in.cview(), shape, func.view(), opt);
  core::stencil2d_ssam<float>(arch(), in.cview(), shape, timed.view(), opt,
                              sim::ExecMode::kTiming, every_block());
  expect_same_output(func, timed);
}

void check_stencil2d_temporal(SplitMix64& rng, Index w, Index h) {
  const Pitched2D in = random_input(rng, w, h);
  const core::StencilShape<float> shape = random_shape2d(rng);
  core::TemporalSsamOptions opt;
  opt.t = 1 + static_cast<int>(rng.next_below(3));
  opt.p = random_p(rng);
  opt.block_threads = random_block_threads(rng);
  Pitched2D func(w, h, in.pitch, kSentinel);
  Pitched2D timed = func;
  core::stencil2d_ssam_temporal<float>(arch(), in.cview(), shape, func.view(), opt);
  core::stencil2d_ssam_temporal<float>(arch(), in.cview(), shape, timed.view(), opt,
                                       sim::ExecMode::kTiming, every_block());
  expect_same_output(func, timed);
}

void check_conv2d(SplitMix64& rng, Index w, Index h) {
  const Pitched2D in = random_input(rng, w, h);
  const int m = 1 + 2 * static_cast<int>(rng.next_below(4));  // 1, 3, 5, 7
  const int n = 1 + 2 * static_cast<int>(rng.next_below(3));  // 1, 3, 5
  std::vector<float> wgt(static_cast<std::size_t>(m * n));
  for (float& v : wgt) v = static_cast<float>(rng.next_in(-0.3, 0.3));
  const core::ConvOptions opt{random_p(rng), random_block_threads(rng)};
  Pitched2D func(w, h, in.pitch, kSentinel);
  Pitched2D timed = func;
  core::conv2d_ssam<float>(arch(), in.cview(), wgt, m, n, func.view(), opt);
  core::conv2d_ssam<float>(arch(), in.cview(), wgt, m, n, timed.view(), opt,
                           sim::ExecMode::kTiming, every_block());
  expect_same_output(func, timed);
}

// ----------------------------------------------------------------- chains

core::ChainStage<float> random_chain_stage(SplitMix64& rng) {
  core::ChainStage<float> st;
  const std::uint64_t pick = rng.next_below(6);
  if (pick < 3) {
    st = core::ChainStage<float>::stencil(random_shape2d(rng));
  } else if (pick < 4) {
    core::StencilShape<float> s = core::star2d<float>(1);
    for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.4, 0.4));
    st = core::ChainStage<float>::stencil(std::move(s), 2 + static_cast<int>(rng.next_below(2)));
  } else {
    st = core::ChainStage<float>::dual_stencil(random_shape2d(rng), random_shape2d(rng),
                                               [](float a, float b) { return a - 0.5f * b; });
  }
  if (rng.next_below(3) == 0) st = st.with_map([](float v) { return v < 0.0f ? -v : v; });
  return st;
}

/// One chain stage over the full grid in timing mode (every block).
void timed_chain_stage(const core::ChainStage<float>& st, GridView2D<const float> in,
                       GridView2D<float> out, int p, int block_threads) {
  const core::detail::ChainStagePlan<float> cp = core::detail::compile_chain_stage(st);
  if (st.dual()) {
    const core::detail::Stencil2dSetup s =
        core::detail::stencil2d_setup(in, cp.plan, core::StencilOptions{p, block_threads});
    auto body = core::detail::make_stencil2d_dual_body<float>(s, in, cp.dual_sweep, st.combine,
                                                              out);
    (void)sim::launch(arch(), s.cfg, body, sim::ExecMode::kTiming, every_block());
  } else if (st.t == 1) {
    core::stencil2d_ssam<float>(arch(), in, cp.plan, out, core::StencilOptions{p, block_threads},
                                sim::ExecMode::kTiming, every_block());
  } else {
    core::stencil2d_ssam_temporal<float>(arch(), in, cp.plan, out,
                                         core::TemporalSsamOptions{st.t, p, block_threads},
                                         sim::ExecMode::kTiming, every_block());
  }
  if (st.map) {
    for (Index i = 0; i < out.width() * out.height(); ++i) out.data()[i] = st.map(out.data()[i]);
  }
}

void check_chain2d(SplitMix64& rng, Index w, Index h) {
  const int depth = 1 + static_cast<int>(rng.next_below(3));
  std::vector<core::ChainStage<float>> stages;
  for (int s = 0; s < depth; ++s) stages.push_back(random_chain_stage(rng));
  Grid2D<float> src(w, h);
  for (Index i = 0; i < src.size(); ++i) src.data()[i] = static_cast<float>(rng.next_in(-1.0, 1.0));
  core::PersistentOptions opt;
  opt.p = random_p(rng);
  opt.block_threads = random_block_threads(rng);
  opt.policy = rng.next_below(2) == 0 ? core::IterationPolicy::kPersistent
                                      : core::IterationPolicy::kRelaunch;

  Grid2D<float> func(w, h, kSentinel);
  (void)core::run_chain2d<float>(arch(), src, func, stages, opt);

  Grid2D<float> cur = src;
  Grid2D<float> next(w, h, kSentinel);
  for (const core::ChainStage<float>& st : stages) {
    timed_chain_stage(st, cur.cview(), next.view(), opt.p, opt.block_threads);
    std::swap(cur, next);
  }
  ASSERT_TRUE(bits_equal(func.data(), cur.data(), static_cast<std::size_t>(func.size())));
}

// ------------------------------------------------------------ 3D kernels

/// A dense nx x ny x nz volume with `kGuard` sentinel elements on both
/// sides, so a store outside the volume shows up as a changed guard.
struct Guarded3D {
  static constexpr Index kGuard = 64;
  Index nx;
  Index ny;
  Index nz;
  std::vector<float> buf;

  Guarded3D(Index x, Index y, Index z, float fill)
      : nx(x), ny(y), nz(z), buf(static_cast<std::size_t>(x * y * z + 2 * kGuard), fill) {}

  [[nodiscard]] GridView3D<float> view() { return {buf.data() + kGuard, nx, ny, nz}; }
  [[nodiscard]] GridView3D<const float> cview() const {
    return {buf.data() + kGuard, nx, ny, nz};
  }
};

Guarded3D random_volume(SplitMix64& rng, Index nx, Index ny, Index nz) {
  Guarded3D v(nx, ny, nz, kPoison);
  for (Index i = 0; i < nx * ny * nz; ++i) {
    v.buf[static_cast<std::size_t>(Guarded3D::kGuard + i)] =
        static_cast<float>(rng.next_in(-1.0, 1.0));
  }
  return v;
}

void expect_same_volume(const Guarded3D& func, const Guarded3D& timed) {
  ASSERT_TRUE(bits_equal(func.buf.data(), timed.buf.data(), func.buf.size()));
  const Index cells = func.nx * func.ny * func.nz;
  for (Index i = 0; i < static_cast<Index>(func.buf.size()); ++i) {
    const bool inside = i >= Guarded3D::kGuard && i < Guarded3D::kGuard + cells;
    const float v = func.buf[static_cast<std::size_t>(i)];
    if (inside) {
      ASSERT_NE(v, kSentinel) << "cell " << i - Guarded3D::kGuard << " never written";
    } else {
      ASSERT_EQ(v, kSentinel) << "guard element " << i << " overwritten";
    }
  }
}

core::StencilShape<float> random_shape3d(SplitMix64& rng, bool radius1) {
  core::StencilShape<float> s;
  switch (radius1 ? rng.next_below(2) * 2 : rng.next_below(3)) {
    case 0:
      s = core::star3d<float>(1);
      break;
    case 1:
      s = core::star3d<float>(2);
      break;
    default:
      s = core::box3d<float>(1);
      break;
  }
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.3, 0.3));
  return s;
}

void check_stencil3d(SplitMix64& rng, Index nx, Index ny, Index nz) {
  const Guarded3D in = random_volume(rng, nx, ny, nz);
  const core::StencilShape<float> shape = random_shape3d(rng, false);
  core::Stencil3DOptions opt;
  opt.p = 1 + static_cast<int>(rng.next_below(4));
  opt.warps = 5 + static_cast<int>(rng.next_below(4));
  Guarded3D func(nx, ny, nz, kSentinel);
  Guarded3D timed = func;
  core::stencil3d_ssam<float>(arch(), in.cview(), shape, func.view(), opt);
  core::stencil3d_ssam<float>(arch(), in.cview(), shape, timed.view(), opt,
                              sim::ExecMode::kTiming, every_block());
  expect_same_volume(func, timed);
}

void check_stencil3d_temporal(SplitMix64& rng, Index nx, Index ny, Index nz) {
  const Guarded3D in = random_volume(rng, nx, ny, nz);
  core::Temporal3DOptions opt;
  opt.t = 1 + static_cast<int>(rng.next_below(2));
  const core::StencilShape<float> shape = random_shape3d(rng, opt.t > 1);
  opt.p = 1 + static_cast<int>(rng.next_below(4));
  opt.warps = 8;
  Guarded3D func(nx, ny, nz, kSentinel);
  Guarded3D timed = func;
  core::stencil3d_ssam_temporal<float>(arch(), in.cview(), shape, func.view(), opt);
  core::stencil3d_ssam_temporal<float>(arch(), in.cview(), shape, timed.view(), opt,
                                       sim::ExecMode::kTiming, every_block());
  expect_same_volume(func, timed);
}

// ------------------------------------------------ randomized differential

TEST(EdgeWarps, RandomizedFunctionalMatchesTiming) {
  const int cases = total_cases();
  const std::uint64_t seed0 = base_seed();
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(c);
    SplitMix64 rng(seed);
    const Index w = 1 + static_cast<Index>(rng.next_below(70));
    const Index h = 1 + static_cast<Index>(rng.next_below(12));
    const int kernel = c % 6;  // every kernel gets every sixth seed
    SCOPED_TRACE("edge case seed=" + std::to_string(seed) + " kernel=" +
                 std::to_string(kernel) + " " + std::to_string(w) + "x" + std::to_string(h) +
                 " (reproduce: SSAM_EDGE_CASES=1 SSAM_EDGE_SEED=" + std::to_string(seed) +
                 ")");
    switch (kernel) {
      case 0:
        check_stencil2d(rng, w, h);
        break;
      case 1:
        check_stencil2d_temporal(rng, w, h);
        break;
      case 2:
        check_conv2d(rng, w, h);
        break;
      case 3:
        check_chain2d(rng, w, h);
        break;
      case 4:
        check_stencil3d(rng, w, h, 1 + static_cast<Index>(rng.next_below(10)));
        break;
      default:
        check_stencil3d_temporal(rng, w, h, 1 + static_cast<Index>(rng.next_below(10)));
        break;
    }
    if (HasFailure()) return;
  }
}

// ------------------------------------------- register-cache capacity limit

/// A one-column stencil reaching `r` rows up and down: 2r + 1 cached rows
/// of halo per sliding window.
core::StencilShape<float> column_stencil(int r) {
  core::StencilShape<float> s;
  s.name = "column";
  const float c = 1.0f / static_cast<float>(2 * r + 1);
  for (int dy = -r; dy <= r; ++dy) s.taps.push_back({0, dy, 0, c});
  return s;
}

core::StencilShape<float> column_stencil3d(int r) {
  core::StencilShape<float> s = column_stencil(r);
  s.taps.push_back({0, 0, 1, 0.25f});
  s.taps.push_back({0, 0, -1, 0.25f});
  return s;
}

/// Runs `fn` and expects a PreconditionError naming kMaxRegCacheRows.
template <typename Fn>
void expect_capacity_error(Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected a register-cache capacity error";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxRegCacheRows"), std::string::npos) << e.what();
  }
}

TEST(RegCacheCapacity, EveryEntryPointRejectsAnOversizedWindowAtSetup) {
  Grid2D<float> in(64, 64, 1.0f);
  Grid2D<float> out(64, 64);
  // 41 rows of taps + 31 more sliding-window rows = 72 > 64.
  const core::StencilShape<float> tall = column_stencil(20);
  expect_capacity_error([&] {
    core::stencil2d_ssam<float>(arch(), in.cview(), tall, out.view(), {32, 128});
  });
  expect_capacity_error([&] {
    core::stencil2d_ssam_temporal<float>(arch(), in.cview(), tall, out.view(), {1, 32, 128});
  });
  // A 3 x 40 filter: 39 halo rows + 32 = 71.
  const std::vector<float> wgt(3 * 40, 0.01f);
  expect_capacity_error([&] {
    core::conv2d_ssam<float>(arch(), in.cview(), wgt, 3, 40, out.view(), {32, 128});
  });

  Grid3D<float> in3(32, 48, 8, 1.0f);
  Grid3D<float> out3(32, 48, 8);
  core::Stencil3DOptions o3;
  o3.p = 32;
  o3.warps = 4;
  expect_capacity_error([&] {
    core::stencil3d_ssam<float>(arch(), in3.cview(), column_stencil3d(20), out3.view(), o3);
  });
  core::Temporal3DOptions t3;
  t3.t = 1;
  t3.p = 32;
  t3.warps = 4;
  expect_capacity_error([&] {
    core::stencil3d_ssam_temporal<float>(arch(), in3.cview(), column_stencil3d(20),
                                         out3.view(), t3);
  });

  // A chain whose second stage is too tall fails before its first stage
  // runs, on the staged and the fused path alike.
  const std::vector<core::ChainStage<float>> stages = {
      core::ChainStage<float>::stencil(core::star2d<float>(1)),
      core::ChainStage<float>::stencil(tall)};
  for (core::IterationPolicy policy :
       {core::IterationPolicy::kRelaunch, core::IterationPolicy::kPersistent}) {
    core::PersistentOptions opt;
    opt.p = 32;
    opt.policy = policy;
    Grid2D<float> chain_out(64, 64, kSentinel);
    expect_capacity_error(
        [&] { (void)core::run_chain2d<float>(arch(), in, chain_out, stages, opt); });
    EXPECT_EQ(chain_out.data()[0], kSentinel) << "a stage ran before the check";
  }
}

TEST(RegCacheCapacity, OversizedJobsFailTyped) {
  Grid2D<float> a(64, 64, 1.0f);
  Grid2D<float> b(64, 64);
  core::JobHints hints;
  hints.p = 32;
  const core::SimJob stencil = core::SimJob::stencil2d(a, b, column_stencil(20), 2, hints);
  expect_capacity_error([&] { (void)core::run_job(arch(), stencil); });

  core::SimJob conv = core::SimJob::conv2d(a, b, std::vector<float>(3 * 40, 0.01f), 3, 40, hints);
  expect_capacity_error([&] { (void)core::run_job(arch(), conv); });

  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "cap0"}});
  core::ServerOptions so;
  so.group = &group;
  core::SimServer server(so);
  core::JobFuture fut = server.submit(stencil);
  const core::JobResult& r = fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kFailed);
  EXPECT_EQ(r.error.code, ErrorCode::kInvalidJob);
  EXPECT_NE(r.error.message.find("kMaxRegCacheRows"), std::string::npos) << r.error.message;
}

}  // namespace
