// Residence-ring suite (core/shard.hpp build_band_layout, the ResidentBandTile
// slot gates in core/iterate_persistent.hpp, claim gating in
// gpusim/persistent.cpp): a persistent run keeps at most ring_slots_for()
// slot pairs per shard in residence and streams its tiles through them.
// Reusing a slot must never change results, so every persistent run here is
// compared BIT FOR BIT against the relaunch path, with the tile count forced
// far above the ring so every slot turns over several times.
//
// Randomized axes (seeded; the failing seed is printed and reproduces with
// SSAM_RING_CASES=1 SSAM_RING_SEED=<seed>): sweeps {1,2,3,5} (2 is the
// smallest fused-first run), pool sizes {1,2,4}, and the engines that share
// the tile state machine — 2D, 3D, 2D sharded(2) on an explicit device
// group, and a depth-3 chain. A directed test overwrites a warm
// workspace's arena and scratch with NaN bytes before each run: every
// engine path must still equal a fresh-workspace run, so no sweep reads a
// residence byte it did not write. Directed tests abort a run mid-ring (a
// cancellation and an injected sweep fault): it must end with a typed
// error, not hang, and leave the workspace fit for a clean rerun.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/grid.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chain.hpp"
#include "core/faultinject.hpp"
#include "core/iterate_persistent.hpp"
#include "core/shard.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::bits_equal;
using ssam::testing::PoolSizeGuard;

int env_int(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return fallback;
}

/// 120 seeded cases locally; sanitizer CI legs pin SSAM_RING_CASES.
int total_cases() { return env_int("SSAM_RING_CASES", 120); }
std::uint64_t base_seed() {
  return static_cast<std::uint64_t>(env_int("SSAM_RING_SEED", 0x41b6));
}

int ring_for(int sweeps, int workers) {
  return core::detail::ring_slots_for(sweeps, workers);
}

/// Runs `fn` on its own thread and aborts the suite loudly if it does not
/// return within the bound: a run that hangs must fail, not wedge CI.
/// Returns fn's result; exceptions propagate to the caller.
template <typename Fn>
auto within_bound(const char* what, Fn&& fn) {
  auto fut = std::async(std::launch::async, std::forward<Fn>(fn));
  if (fut.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    std::fprintf(stderr, "%s did not return within 120 s (hang)\n", what);
    std::abort();
  }
  return fut.get();
}

core::StencilShape<float> random_shape2d(SplitMix64& rng, int radius) {
  core::StencilShape<float> s =
      rng.next_below(3) == 0 ? core::box2d<float>(3, 3) : core::star2d<float>(radius);
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.4, 0.4));
  return s;
}

std::vector<sim::DeviceOptions> two_devices(int workers) {
  return {sim::DeviceOptions{workers, {}, "ring0"}, sim::DeviceOptions{workers, {}, "ring1"}};
}

/// A band extent for a tile target of `tiles` bands of `align` units. An
/// exact multiple yields `tiles` bands; a ragged extent yields about half
/// as many bands of 2 * align units whose too-short tail merges into the
/// last band, so one slot hosts a band wider than its first occupant's.
Index units_for(SplitMix64& rng, int tiles, Index align) {
  const Index ragged = rng.next_below(2) == 0
                           ? 0
                           : static_cast<Index>(rng.next_below(static_cast<std::uint64_t>(align)));
  return static_cast<Index>(tiles) * align + ragged;
}

/// The sliding window of an auto-P 2D run whose deepest stage reaches
/// `halo_rows` rows at `t` fused steps, over a grid taller than the window:
/// band extents are multiples of it.
Index window_for(int t, int halo_rows) {
  return core::resolve_p(t, halo_rows, std::numeric_limits<Index>::max());
}

int rows_halo(const core::StencilShape<float>& shape) {
  return core::build_plan(shape.taps).rows_halo();
}

// ------------------------------------------------ randomized differential

TEST(RingDifferential, PersistentMatchesRelaunchFarAboveTheRing) {
  PoolSizeGuard guard;
  const int cases = total_cases();
  const std::uint64_t seed0 = base_seed();
  constexpr std::array<int, 4> kSweeps = {1, 2, 3, 5};
  constexpr std::array<int, 3> kPools = {1, 2, 4};
  constexpr std::array<const char*, 4> kKinds = {"2d", "3d", "2d-sharded(2)", "chain3"};
  int cur_pool = 0;
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("ring case seed=" + std::to_string(seed) +
                 " (reproduce: SSAM_RING_CASES=1 SSAM_RING_SEED=" + std::to_string(seed) +
                 ")");
    SplitMix64 rng(seed);
    const int kind = static_cast<int>(seed % 4);
    const int pool = kPools[static_cast<std::size_t>((seed / 4) % 3)];
    if (pool != cur_pool) {
      ThreadPool::reset_global(pool);
      cur_pool = pool;
    }
    const int sweeps = kind == 3 ? 3 : kSweeps[rng.next_below(kSweeps.size())];
    core::PersistentOptions opt;
    opt.policy = core::IterationPolicy::kPersistent;
    core::PersistentOptions ref = opt;
    ref.policy = core::IterationPolicy::kRelaunch;
    core::PersistentRunStats st;
    std::vector<float> want;
    std::vector<float> got;

    if (kind == 0 || kind == 2) {
      const bool sharded = kind == 2;
      const int dev_workers = sharded ? std::max(1, pool / 2) : pool;
      const int shards = sharded ? 2 : 1;
      const int tiles = 6 * ring_for(sweeps, dev_workers) * shards;
      const int radius = rng.next_below(3) == 0 ? 2 : 1;
      opt.t = radius == 1 ? 1 + static_cast<int>(rng.next_below(2)) : 1;
      ref.t = opt.t;
      opt.tiles = tiles;
      const core::StencilShape<float> shape = random_shape2d(rng, radius);
      const Index w = 17 + static_cast<Index>(rng.next_below(48));
      const Index h = units_for(rng, tiles, window_for(opt.t, rows_halo(shape)));
      Grid2D<float> src(w, h);
      fill_random(src, seed ^ 0x9e3779b9u);
      Grid2D<float> ra = src, rb(w, h), pa = src, pb(w, h);
      (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape,
                                                      sweeps, ref);
      sim::DeviceGroup group(two_devices(dev_workers));
      if (sharded) opt.shard = core::ShardPolicy::sharded(2, &group);
      st = within_bound("2D ring run", [&] {
        return core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb, shape,
                                                         sweeps, opt);
      });
      want.assign(ra.data(), ra.data() + ra.size());
      got.assign(pa.data(), pa.data() + pa.size());
    } else if (kind == 1) {
      opt.t = 1 + static_cast<int>(rng.next_below(2));
      ref.t = opt.t;
      const int tiles = 6 * ring_for(sweeps, pool);
      opt.tiles = tiles;
      core::StencilShape<float> shape = core::star3d<float>(1);
      for (auto& tap : shape.taps) tap.coeff = static_cast<float>(rng.next_in(-0.3, 0.3));
      const Index nx = 8 + static_cast<Index>(rng.next_below(12));
      const Index ny = 4 + static_cast<Index>(rng.next_below(8));
      const Index nz = units_for(rng, tiles, static_cast<Index>(opt.warps3d - 2 * opt.t));
      Grid3D<float> src(nx, ny, nz);
      fill_random(src, seed ^ 0x9e3779b9u);
      Grid3D<float> ra = src, rb(nx, ny, nz), pa = src, pb(nx, ny, nz);
      (void)core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), ra, rb, shape,
                                                      sweeps, ref);
      st = within_bound("3D ring run", [&] {
        return core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), pa, pb, shape,
                                                         sweeps, opt);
      });
      want.assign(ra.data(), ra.data() + ra.size());
      got.assign(pa.data(), pa.data() + pa.size());
    } else {
      const bool sharded = (seed / 12) % 2 == 1;
      const int dev_workers = sharded ? std::max(1, pool / 2) : pool;
      const int shards = sharded ? 2 : 1;
      const int tiles = 6 * ring_for(sweeps, dev_workers) * shards;
      opt.tiles = tiles;
      std::vector<core::ChainStage<float>> stages;
      for (int s = 0; s < sweeps; ++s) {
        core::ChainStage<float> stage = core::ChainStage<float>::stencil(
            random_shape2d(rng, rng.next_below(2) == 0 ? 1 : 2));
        if (rng.next_below(3) == 0) stage = stage.with_map([](float v) { return v * 0.5f; });
        stages.push_back(std::move(stage));
      }
      const Index w = 17 + static_cast<Index>(rng.next_below(48));
      int deepest = 0;
      for (const auto& stage : stages) deepest = std::max(deepest, rows_halo(stage.shape));
      const Index h = units_for(rng, tiles, window_for(1, deepest));
      Grid2D<float> src(w, h);
      fill_random(src, seed ^ 0x9e3779b9u);
      Grid2D<float> staged(w, h), fused(w, h);
      (void)core::run_chain2d<float>(sim::tesla_v100(), src, staged, stages, ref);
      sim::DeviceGroup group(two_devices(dev_workers));
      if (sharded) opt.shard = core::ShardPolicy::sharded(2, &group);
      st = within_bound("chain ring run", [&] {
        return core::run_chain2d<float>(sim::tesla_v100(), src, fused, stages, opt);
      });
      want.assign(staged.data(), staged.data() + staged.size());
      got.assign(fused.data(), fused.data() + fused.size());
    }

    EXPECT_TRUE(st.persistent);
    ASSERT_GT(st.ring_slots, 0);
    // Far above the ring: every shard's slots turn over at least twice.
    EXPECT_GE(st.tiles, 2 * st.ring_slots * st.devices)
        << "tiles=" << st.tiles << " ring_slots=" << st.ring_slots;
    ASSERT_TRUE(bits_equal(want.data(), got.data(), want.size()))
        << "kind=" << kKinds[static_cast<std::size_t>(kind)] << " pool=" << pool
        << " sweeps=" << sweeps << " t=" << opt.t << " tiles=" << st.tiles
        << " ring_slots=" << st.ring_slots << " devices=" << st.devices;
  }
}

// ------------------------------------------------------- layout and stats

TEST(RingLayout, DramSizedRunCarvesTheRingNotOnePairPerTile) {
  // The geometry of a 2-sweep star-2 run over a 20480x16384 float grid:
  // 2048 tiles of 8 rows (+2 halo rows each side) on a 1-worker lane.
  core::detail::BandLayoutRequest req;
  req.units = 16384;
  req.unit_elems = 20480;
  req.elem_bytes = sizeof(float);
  req.ht = 2;
  req.hb = 2;
  req.align = 4;
  req.min_band = 2;
  req.sweeps = 2;
  req.lane_workers = 1;
  sim::PersistentWorkspace ws;
  const core::detail::BandLayout L =
      core::detail::build_band_layout(req, core::ShardPolicy::single(), ws);
  ASSERT_EQ(L.tiles(), 2048);
  const int slots = ring_for(2, 1);
  ASSERT_EQ(L.ring_slots, slots);
  ASSERT_LT(L.ring_slots, L.tiles());

  // At most ring_slots distinct slot pairs, tile i in slot i mod R.
  const std::set<std::byte*> pairs(L.buf_a.begin(), L.buf_a.end());
  EXPECT_EQ(static_cast<int>(pairs.size()), slots);
  for (int i = 0; i < L.tiles(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_EQ(L.buf_a[u], L.buf_a[u % static_cast<std::size_t>(slots)]);
    EXPECT_EQ(L.buf_b[u], L.buf_b[u % static_cast<std::size_t>(slots)]);
    EXPECT_EQ(L.ring_prev[u], i >= slots ? i - slots : -1);
  }
  const std::size_t pair = 2 * std::size_t{12} * 20480 * sizeof(float);
  EXPECT_GE(L.residence_bytes, static_cast<std::size_t>(slots) * pair);
  // Per-buffer skew guards are a few KiB; a pair per tile would be 100x more.
  EXPECT_LE(L.residence_bytes, static_cast<std::size_t>(slots) * (pair + (64u << 10)));
}

TEST(RingLayout, AtMostRingTilesKeepOnePairPerTile) {
  core::detail::BandLayoutRequest req;
  req.units = 400;
  req.unit_elems = 64;
  req.elem_bytes = sizeof(float);
  req.ht = 1;
  req.hb = 1;
  req.align = 4;
  req.min_band = 1;
  req.want_tiles = ring_for(3, 1);
  req.sweeps = 3;
  req.lane_workers = 1;
  sim::PersistentWorkspace ws;
  const core::detail::BandLayout L =
      core::detail::build_band_layout(req, core::ShardPolicy::single(), ws);
  ASSERT_LE(L.tiles(), ring_for(3, 1));
  EXPECT_EQ(L.ring_slots, L.tiles());
  const std::set<std::byte*> pairs(L.buf_a.begin(), L.buf_a.end());
  EXPECT_EQ(static_cast<int>(pairs.size()), L.tiles());
  for (int i = 0; i < L.tiles(); ++i) {
    EXPECT_EQ(L.ring_prev[static_cast<std::size_t>(i)], -1);
    EXPECT_EQ(L.slot_gate(i), nullptr);
  }
}

TEST(RingStats, RunStatsAndPolicyLogReportTheRing) {
  PoolSizeGuard guard;
  ThreadPool::reset_global(2);
  const int sweeps = 2;
  const int slots = ring_for(sweeps, 2);
  const int tiles = 4 * slots;
  const Index w = 1024;  // wide rows: per-buffer skew guards stay negligible
  const core::StencilShape<float> shape = core::star2d<float>(1);
  const Index p = window_for(1, rows_halo(shape));  // one band of p rows per tile
  Grid2D<float> src(w, p * tiles);
  fill_random(src, 5);
  Grid2D<float> ra = src, rb(w, p * tiles), pa = src, pb(w, p * tiles);
  core::PersistentOptions opt;
  opt.tiles = tiles;  // kAuto: 2 sweeps already choose the persistent engine
  core::PersistentOptions ref = opt;
  ref.policy = core::IterationPolicy::kRelaunch;

  const auto rr =
      core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape, sweeps, ref);
  EXPECT_EQ(rr.ring_slots, 0);
  EXPECT_EQ(rr.residence_bytes, 0u);

  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  ::testing::internal::CaptureStderr();
  const auto r =
      core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb, shape, sweeps, opt);
  const std::string log = ::testing::internal::GetCapturedStderr();
  set_log_level(before);

  ASSERT_TRUE(r.persistent);
  EXPECT_EQ(r.tiles, tiles);
  EXPECT_EQ(r.ring_slots, slots);
  EXPECT_EQ(r.p, p);
  const std::size_t pair = 2 * static_cast<std::size_t>(p + 2) * w * sizeof(float);
  EXPECT_GE(r.residence_bytes, static_cast<std::size_t>(slots) * pair);
  EXPECT_LT(r.residence_bytes, static_cast<std::size_t>(2 * slots) * pair);
  EXPECT_NE(log.find(", p=" + std::to_string(p) + ","), std::string::npos) << log;
  EXPECT_NE(log.find("ring_slots=" + std::to_string(slots)), std::string::npos) << log;
  EXPECT_NE(log.find("residence_bytes=" + std::to_string(r.residence_bytes)),
            std::string::npos)
      << log;
  ASSERT_TRUE(bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(src.size())));
}

// ------------------------------------------------------- stale residence

/// Overwrites the first bytes of a warm workspace's arena and scratch with
/// 0xFF, a NaN as a float. A run that reads a residence byte before writing
/// it then differs from a fresh-workspace run.
void poison(sim::PersistentWorkspace& ws, std::size_t arena_bytes,
            std::size_t scratch_bytes) {
  if (arena_bytes > 0) std::memset(ws.arena(arena_bytes), 0xFF, arena_bytes);
  if (scratch_bytes > 0) std::memset(ws.scratch(scratch_bytes), 0xFF, scratch_bytes);
}

TEST(RingReuse, PoisonedWarmWorkspaceMatchesAFreshOne) {
  // Each engine path runs on a brand-new workspace, then twice on one warm
  // workspace shared by every case: the second warm run starts from an
  // arena and scratch block overwritten with NaN bytes, sized from the
  // first warm run's residence_bytes. Every tile count is far above the
  // ring, so each slot turns over. Outputs must equal the fresh run's.
  const int pool = ThreadPool::global().size();
  const int sweeps = 3;
  const int tiles = 4 * ring_for(sweeps, pool);
  const core::StencilShape<float> star2 = core::star2d<float>(1);
  const Index w = 40;
  const Index h = window_for(1, rows_halo(star2)) * tiles;  // one band per tile
  const std::size_t grid_bytes = static_cast<std::size_t>(w * h) * sizeof(float);
  Grid2D<float> src2(w, h), aux2(w, h);
  fill_random(src2, 71);
  fill_random(aux2, 72);
  core::StencilShape<float> star3 = core::star3d<float>(1);
  for (auto& tap : star3.taps) tap.coeff = 0.1f;
  const Index nz = static_cast<Index>(core::PersistentOptions{}.warps3d - 2) * tiles;
  Grid3D<float> src3(12, 8, nz), aux3(12, 8, nz);
  fill_random(src3, 73);
  fill_random(aux3, 74);
  auto wave2 = [](GridView2D<float> next, GridView2D<const float> cur, GridView2D<float> aux) {
    for (Index y = 0; y < next.height(); ++y) {
      for (Index x = 0; x < next.width(); ++x) {
        const float p = cur.at(x, y);
        next.at(x, y) = 2.0f * p - aux.at(x, y) + 0.2f * next.at(x, y);
        aux.at(x, y) = p;
      }
    }
  };
  auto wave3 = [](GridView3D<float> next, GridView3D<const float> cur, GridView3D<float> aux) {
    for (Index z = 0; z < next.nz(); ++z) {
      for (Index y = 0; y < next.ny(); ++y) {
        for (Index x = 0; x < next.nx(); ++x) {
          const float p = cur.at(x, y, z);
          next.at(x, y, z) = 2.0f * p - aux.at(x, y, z) + 0.2f * next.at(x, y, z);
          aux.at(x, y, z) = p;
        }
      }
    }
  };
  std::vector<core::ChainStage<float>> stages(3, core::ChainStage<float>::stencil(star2));
  stages[1] = stages[1].with_map([](float v) { return v * 0.5f; });

  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.tiles = tiles;
  core::PersistentOptions staged = opt;
  staged.policy = core::IterationPolicy::kRelaunch;

  // One run of a case from its pristine inputs: its outputs (state and
  // aux, or the chain output) and its stats.
  struct Out {
    std::vector<float> cells;
    core::PersistentRunStats st;
  };
  auto append = [](std::vector<float>& v, const float* p, Index n) {
    v.insert(v.end(), p, p + n);
  };
  using Case = std::function<Out(sim::PersistentWorkspace&, sim::DeviceGroup&)>;
  const std::vector<std::pair<const char*, Case>> cases = {
      {"2d fused ends",
       [&](sim::PersistentWorkspace& ws, sim::DeviceGroup&) {
         Grid2D<float> a = src2, b(w, h);
         Out o;
         o.st = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, star2, sweeps,
                                                          opt, {}, nullptr, &ws);
         append(o.cells, a.data(), a.size());
         return o;
       }},
      {"2d staged ends, post hook and aux",
       [&](sim::PersistentWorkspace& ws, sim::DeviceGroup&) {
         Grid2D<float> a = src2, b(w, h), aux = aux2;
         Out o;
         o.st = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, star2, sweeps,
                                                          opt, wave2, &aux, &ws);
         append(o.cells, a.data(), a.size());
         append(o.cells, aux.data(), aux.size());
         return o;
       }},
      {"3d fused ends",
       [&](sim::PersistentWorkspace& ws, sim::DeviceGroup&) {
         Grid3D<float> a = src3, b(12, 8, nz);
         Out o;
         o.st = core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), a, b, star3, sweeps,
                                                          opt, {}, nullptr, &ws);
         append(o.cells, a.data(), a.size());
         return o;
       }},
      {"3d staged ends, post hook and aux",
       [&](sim::PersistentWorkspace& ws, sim::DeviceGroup&) {
         Grid3D<float> a = src3, b(12, 8, nz), aux = aux3;
         Out o;
         o.st = core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), a, b, star3, sweeps,
                                                          opt, wave3, &aux, &ws);
         append(o.cells, a.data(), a.size());
         append(o.cells, aux.data(), aux.size());
         return o;
       }},
      {"fused chain",
       [&](sim::PersistentWorkspace& ws, sim::DeviceGroup&) {
         Grid2D<float> out(w, h);
         Out o;
         o.st = core::run_chain2d<float>(sim::tesla_v100(), src2, out, stages, opt, &ws);
         append(o.cells, out.data(), out.size());
         return o;
       }},
      {"staged chain",
       [&](sim::PersistentWorkspace& ws, sim::DeviceGroup&) {
         Grid2D<float> out(w, h);
         Out o;
         o.st = core::run_chain2d<float>(sim::tesla_v100(), src2, out, stages, staged, &ws);
         append(o.cells, out.data(), out.size());
         return o;
       }},
      {"2d sharded(2)",
       [&](sim::PersistentWorkspace&, sim::DeviceGroup& group) {
         core::PersistentOptions so = opt;
         so.tiles = 4 * ring_for(sweeps, 1) * 2;
         so.shard = core::ShardPolicy::sharded(2, &group);
         Grid2D<float> a = src2, b(w, h);
         Out o;
         o.st = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, star2, sweeps,
                                                          so);
         append(o.cells, a.data(), a.size());
         return o;
       }},
  };

  sim::PersistentWorkspace warm;
  sim::DeviceGroup warm_group(two_devices(1));
  for (const auto& [name, run] : cases) {
    SCOPED_TRACE(name);
    sim::PersistentWorkspace fresh;
    sim::DeviceGroup fresh_group(two_devices(1));
    const Out want = run(fresh, fresh_group);
    const Out first = run(warm, warm_group);
    ASSERT_TRUE(bits_equal(want.cells.data(), first.cells.data(), want.cells.size()));
    // The staged chain ping-pongs through two grid-sized scratch buffers.
    const std::size_t scratch = first.st.persistent ? 0 : 2 * grid_bytes;
    if (first.st.sharded) {
      ASSERT_GT(first.st.residence_bytes, 0u);
      for (int d = 0; d < warm_group.size(); ++d) {
        poison(warm_group.device(d).workspace(), first.st.residence_bytes, 0);
      }
    } else {
      ASSERT_EQ(first.st.persistent, first.st.residence_bytes > 0);
      poison(warm, first.st.residence_bytes, scratch);
    }
    const Out got = run(warm, warm_group);
    EXPECT_EQ(got.st.persistent, want.st.persistent);
    EXPECT_GE(got.st.tiles, 2 * got.st.ring_slots * got.st.devices) << "ring never turned over";
    ASSERT_TRUE(bits_equal(want.cells.data(), got.cells.data(), want.cells.size()));
  }
}

// ------------------------------------------------------------ mid-ring abort

TEST(RingAbort, CancelMidRingEndsTypedAndLeavesAUsableWorkspace) {
  PoolSizeGuard guard;
  for (int pool : {1, 2, 4}) {
    SCOPED_TRACE("pool=" + std::to_string(pool));
    ThreadPool::reset_global(pool);
    const int sweeps = 3;
    const int tiles = 4 * ring_for(sweeps, pool);
    const Index w = 24;
    const core::StencilShape<float> shape = core::star2d<float>(1);
    const Index h = window_for(1, rows_halo(shape)) * tiles;  // one band per tile
    Grid2D<float> src(w, h);
    fill_random(src, 11);
    sim::PersistentWorkspace ws;

    // 2D with a post hook (staged load/drain): cancel once half of all
    // tile-sweeps ran, long after the first tiles left the ring.
    {
      core::PersistentOptions opt;
      opt.policy = core::IterationPolicy::kPersistent;
      opt.tiles = tiles;
      opt.cancel = CancelToken::make();
      const CancelToken tok = opt.cancel;
      std::atomic<int> posts{0};
      const int total = tiles * sweeps;
      auto post = [&posts, tok, total](GridView2D<float>, GridView2D<const float>,
                                       GridView2D<float>) {
        if (posts.fetch_add(1) + 1 == total / 2) tok.cancel();
      };
      Grid2D<float> a = src, b(w, h);
      EXPECT_THROW(within_bound("cancelled 2D ring run",
                                [&] {
                                  (void)core::iterate_stencil2d_persistent<float>(
                                      sim::tesla_v100(), a, b, shape, sweeps, opt, post,
                                      nullptr, &ws);
                                }),
                   CancelledError);
      EXPECT_LT(posts.load(), total) << "the cancelled run kept sweeping to the end";
    }

    // Fused chain: the map epilogue cancels halfway through the last stage.
    {
      core::PersistentOptions opt;
      opt.policy = core::IterationPolicy::kPersistent;
      opt.tiles = tiles;
      opt.cancel = CancelToken::make();
      const CancelToken tok = opt.cancel;
      std::atomic<long long> mapped{0};
      const long long half = static_cast<long long>(w * h) / 2;
      std::vector<core::ChainStage<float>> stages(
          2, core::ChainStage<float>::stencil(shape));
      stages.push_back(core::ChainStage<float>::stencil(shape).with_map(
          [&mapped, tok, half](float v) {
            if (mapped.fetch_add(1) + 1 == half) tok.cancel();
            return v;
          }));
      Grid2D<float> out(w, h);
      EXPECT_THROW(within_bound("cancelled chain ring run",
                                [&] {
                                  (void)core::run_chain2d<float>(sim::tesla_v100(), src, out,
                                                                 stages, opt, &ws);
                                }),
                   CancelledError);
    }

    // The same workspace then serves a clean run bit-identical to relaunch.
    core::PersistentOptions opt;
    opt.policy = core::IterationPolicy::kPersistent;
    opt.tiles = tiles;
    core::PersistentOptions ref = opt;
    ref.policy = core::IterationPolicy::kRelaunch;
    Grid2D<float> ra = src, rb(w, h), pa = src, pb(w, h);
    (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape, sweeps,
                                                    ref);
    (void)within_bound("clean ring run after cancel", [&] {
      return core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb, shape,
                                                       sweeps, opt, {}, nullptr, &ws);
    });
    ASSERT_TRUE(bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(src.size())));
  }
}

/// A seed whose first kernel-sweep injection at `rate` is decision n with
/// lo <= n < hi — the decision stream is a pure function of the seed, so the
/// fault lands at the same sweep count in every schedule.
std::uint64_t seed_with_first_fault_in(double rate, int lo, int hi) {
  core::FaultInjector& fi = core::FaultInjector::global();
  core::FaultPlan plan;
  plan.site(core::FaultSite::kKernelSweep) = {rate, true};
  for (std::uint64_t s = 1; s < 20000; ++s) {
    plan.seed = s;
    fi.set_plan(plan);
    int n = 0;
    while (n < hi && !fi.should_inject(core::FaultSite::kKernelSweep, -1)) ++n;
    if (n >= lo && n < hi) {
      fi.disarm();
      return s;
    }
  }
  fi.disarm();
  return 0;
}

TEST(RingAbort, InjectedFaultMidRingEndsTypedAndDoesNotHang) {
  PoolSizeGuard guard;
  for (int pool : {1, 2, 4}) {
    for (bool sharded : {false, true}) {
      SCOPED_TRACE("pool=" + std::to_string(pool) + (sharded ? " sharded(2)" : " single"));
      ThreadPool::reset_global(pool);
      const int sweeps = 3;
      const int dev_workers = sharded ? std::max(1, pool / 2) : pool;
      const int tiles = 4 * ring_for(sweeps, dev_workers) * (sharded ? 2 : 1);
      const Index w = 20;
      const core::StencilShape<float> shape = core::star2d<float>(1);
      const Index h = window_for(1, rows_halo(shape)) * tiles;  // one band per tile
      Grid2D<float> src(w, h);
      fill_random(src, 17);
      sim::DeviceGroup group(two_devices(dev_workers));
      core::PersistentOptions opt;
      opt.policy = core::IterationPolicy::kPersistent;
      opt.tiles = tiles;
      if (sharded) opt.shard = core::ShardPolicy::sharded(2, &group);

      // First fault between 1/3 and 2/3 of all tile-sweeps: by then at most
      // ring-many tiles are in flight, so earlier occupants have drained.
      const int total = tiles * sweeps;
      const std::uint64_t seed =
          seed_with_first_fault_in(3.0 / total, total / 3, 2 * total / 3);
      ASSERT_NE(seed, 0u);
      core::FaultPlan plan;
      plan.seed = seed;
      plan.site(core::FaultSite::kKernelSweep) = {3.0 / total, true};
      core::FaultInjector::global().set_plan(plan);
      Grid2D<float> a = src, b(w, h);
      bool typed = false;
      try {
        (void)within_bound("faulted ring run", [&] {
          return core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, shape,
                                                           sweeps, opt);
        });
      } catch (const core::FaultError& e) {
        typed = e.site() == core::FaultSite::kKernelSweep && e.transient();
      }
      core::FaultInjector::global().disarm();
      EXPECT_TRUE(typed) << "the faulted run must end with a kernel-sweep FaultError";

      // Clean rerun: bit-identical to relaunch.
      core::PersistentOptions ref = opt;
      ref.policy = core::IterationPolicy::kRelaunch;
      ref.shard = core::ShardPolicy::single();
      Grid2D<float> ra = src, rb(w, h), pa = src, pb(w, h);
      (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape,
                                                      sweeps, ref);
      (void)within_bound("clean ring run after fault", [&] {
        return core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb, shape,
                                                         sweeps, opt);
      });
      ASSERT_TRUE(bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(src.size())));
    }
  }
}

}  // namespace
