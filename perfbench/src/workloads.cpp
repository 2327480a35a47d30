#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/iterate_persistent.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/device.hpp"
#include "reference/conv.hpp"
#include "reference/stencil.hpp"

namespace perfbench {

using ssam::Grid2D;
using ssam::Grid3D;
using ssam::Index;
namespace core = ssam::core;
namespace sim = ssam::sim;

namespace {

// sweep_dram: each array is 1.25 GiB, 4.2x a 300 MiB L3.
constexpr Index kDramW = 20480;
constexpr Index kDramH = 16384;
constexpr int kDramSteps = 2;  // sweeps per stencil job

// iterate_resident: every array at most 1/8 of a 300 MiB L3.
constexpr Index kResN = 2048;
constexpr Index kRes3X = 256, kRes3Y = 256, kRes3Z = 128;
constexpr int kResSweeps = 32;
constexpr int kResTemporalSweeps = 8;  // at t = 4: 32 time steps
constexpr int kRes3DSweeps = 4;
constexpr int kChainDepth = 8;

// serve_openloop: the offered rate is about a quarter of the rate at which
// this mix saturates four 1-worker devices. At half, 10% of the CPU taken by
// another process raised sojourn p90 by 30%; at a quarter, by 8% (README.md).
constexpr double kServeRate = 8000.0;  // jobs/s
constexpr int kTenants = 3;
constexpr int kSlotsPerKind = 32;
constexpr double kSloMs = 10.0;  // goodput counts jobs served within this
// Serving metrics are medians over windows of this length, so a stall of
// the shared host that lands in a few windows does not move them.
constexpr double kWindowS = 0.5;
constexpr auto kPollTick = std::chrono::microseconds(100);

// Untimed load before a timed phase. After the host has idled, the first
// second of full load runs measurably slower (an open loop at half
// saturation was seen to back up for ~1 s), so every workload whose set-up
// is short warms the CPUs first.
constexpr double kWarmupS = 1.0;

/// Seeded 5x5 filter whose weights sum to 1 (keeps iterated data bounded).
std::vector<float> seeded_filter(std::uint64_t seed) {
  ssam::SplitMix64 rng(seed);
  std::vector<float> f(25);
  double sum = 0.0;
  for (float& w : f) {
    w = static_cast<float>(rng.next_in(0.5, 1.5));
    sum += w;
  }
  for (float& w : f) w = static_cast<float>(w / sum);
  return f;
}

/// Converts a caught job failure into a ledger entry instead of a crash.
template <typename Fn>
bool guarded(const char* what, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "job failed (%s): %s\n", what, e.what());
    return false;
  }
}

// ------------------------------------------------------------ output checks

/// A clipped rectangle cut out of a grid around (cx, cy). Rectangle edges
/// that are domain borders stay borders, so clamped reads behave as on the
/// full grid; artificial edges only disturb cells within the stencil's
/// reach of them.
struct Window {
  Index x0 = 0, y0 = 0, cx = 0, cy = 0;
  Grid2D<float> g;
};

Window cut(const Grid2D<float>& src, Index cx, Index cy, Index half) {
  Window w;
  w.cx = cx;
  w.cy = cy;
  w.x0 = std::max<Index>(0, cx - half);
  w.y0 = std::max<Index>(0, cy - half);
  const Index x1 = std::min<Index>(src.width(), cx + half + 1);
  const Index y1 = std::min<Index>(src.height(), cy + half + 1);
  w.g = Grid2D<float>(x1 - w.x0, y1 - w.y0);
  for (Index y = w.y0; y < y1; ++y) {
    std::memcpy(&w.g.at(0, y - w.y0), &src.at(w.x0, y),
                static_cast<std::size_t>(x1 - w.x0) * sizeof(float));
  }
  return w;
}

/// Compares the cells within `half` of the window centre between `got`
/// (window coordinates) and the full grid `full`: bit for bit, or with the
/// normalised tolerance `tol` when tol > 0.
bool block_matches(const Window& w, const Grid2D<float>& got, const Grid2D<float>& full,
                   Index half, double tol) {
  double max_diff = 0.0;
  double scale = 1e-3;
  for (Index y = std::max<Index>(0, w.cy - half);
       y <= std::min<Index>(full.height() - 1, w.cy + half); ++y) {
    for (Index x = std::max<Index>(0, w.cx - half);
         x <= std::min<Index>(full.width() - 1, w.cx + half); ++x) {
      const float a = got.at(x - w.x0, y - w.y0);
      const float b = full.at(x, y);
      if (tol <= 0.0) {
        if (std::memcmp(&a, &b, sizeof(float)) != 0) return false;
        continue;
      }
      max_diff = std::max(max_diff, std::abs(static_cast<double>(a) - b));
      scale = std::max(scale, std::abs(static_cast<double>(b)));
    }
  }
  return tol <= 0.0 || max_diff / scale <= tol;
}

std::vector<std::pair<Index, Index>> sample_cells(std::uint64_t seed, Index w, Index h,
                                                  int n) {
  ssam::SplitMix64 rng(seed);
  std::vector<std::pair<Index, Index>> v;
  v.reserve(static_cast<std::size_t>(n));
  // Always include the corners: the clamped borders are where stencil
  // implementations go wrong.
  v.emplace_back(0, 0);
  v.emplace_back(w - 1, h - 1);
  while (static_cast<int>(v.size()) < n) {
    v.emplace_back(static_cast<Index>(rng.next_below(static_cast<std::uint64_t>(w))),
                   static_cast<Index>(rng.next_below(static_cast<std::uint64_t>(h))));
  }
  return v;
}

template <typename G>
bool same_bits(const G& a, const G& b) {
  return std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(float)) ==
         0;
}

// ------------------------------------------------------------ closed loops

/// One request of a closed-loop workload: the workload's fixed sequence of
/// jobs, issued back to back by the client thread.
struct Round {
  double ms = 0.0;
  double stencil_cells = 0.0;  ///< cell updates by stencil and chain jobs
  double stencil_ms = 0.0;
  double conv_cells = 0.0;
  double conv_ms = 0.0;
  int jobs_ok = 0;
  bool traced = false;
};

void closed_loop_end_to_end(const std::vector<Round>& rounds, RunResult& out) {
  std::vector<double> stencil, conv, ms, jobs_per_s;
  for (const Round& r : rounds) {
    if (r.stencil_ms > 0.0) stencil.push_back(r.stencil_cells / r.stencil_ms * 1e-6);
    if (r.conv_ms > 0.0) conv.push_back(r.conv_cells / r.conv_ms * 1e-6);
    ms.push_back(r.ms);
    jobs_per_s.push_back(r.jobs_ok / (r.ms * 1e-3));
  }
  out.add("stencil_gcells_per_s", median(stencil), "Gcell/s");
  out.add("conv_gcells_per_s", median(conv), "Gcell/s");
  out.add("sojourn_ms_p50", percentile(ms, 0.50), "ms");
  out.add("sojourn_ms_p90", percentile(ms, 0.90), "ms");
  out.add("goodput_jobs_per_s", median(jobs_per_s), "1/s");
}

double closed_loop_overhead(const std::vector<Round>& rounds) {
  std::vector<double> on, off;
  for (const Round& r : rounds) (r.traced ? on : off).push_back(r.ms);
  if (on.empty() || off.empty()) return 0.0;
  return median(on) / median(off) - 1.0;
}

/// Times one direct job inside the current round.
template <typename Fn>
void round_job(Trace& trace, const char* span, Round& r, double cells, bool conv,
               std::uint64_t& attempted, std::uint64_t& failed, Fn&& fn) {
  Span s(trace, span);
  ++attempted;
  const bool ok = guarded(span, fn);
  const double ms = s.close();
  if (!ok) {
    ++failed;
    return;
  }
  ++r.jobs_ok;
  (conv ? r.conv_cells : r.stencil_cells) += cells;
  (conv ? r.conv_ms : r.stencil_ms) += ms;
}

/// Runs untimed rounds for `warmup_s`, then timed rounds until
/// ctx.seconds have passed; `round` fills one Round.
template <typename Fn>
std::vector<Round> closed_loop(Context& ctx, double warmup_s, bool alternate_trace,
                               Fn&& round) {
  {
    const bool was = ctx.trace.enabled();
    ctx.trace.set_enabled(false);
    Round scratch;
    for (const auto t0 = Clock::now(); ms_between(t0, Clock::now()) < warmup_s * 1e3;) {
      round(scratch);
    }
    ctx.trace.set_enabled(was);
  }
  std::vector<Round> rounds;
  Span phase(ctx.trace, "workload.phase");
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; ms_between(t0, Clock::now()) < ctx.seconds * 1e3; ++i) {
    Round r;
    r.traced = alternate_trace && i % 2 == 0;
    if (alternate_trace) ctx.trace.set_enabled(r.traced);
    Span s(ctx.trace, "workload.round", i + 1);
    round(r);
    r.ms = s.close();
    rounds.push_back(r);
  }
  if (alternate_trace) ctx.trace.set_enabled(true);
  return rounds;
}

// ============================================================== sweep_dram

/// DRAM-streaming sweeps: a 2D star-2 stencil job and a 5x5 conv2d over
/// arrays 4x larger than the LLC, through direct run_job on the global
/// pool. Kernel sweeps and memory bandwidth do nearly all the work.
class SweepDram final : public Workload {
 public:
  double setup(Context& ctx) override {
    teardown();
    Span s(ctx.trace, "setup.sweep_dram");
    shape_ = core::star2d<float>(2);
    filter_ = seeded_filter(derive_seed(ctx.seed, 1));
    {
      Span a(ctx.trace, "setup.alloc");
      a_ = std::make_unique<Grid2D<float>>(kDramW, kDramH);
      b_ = std::make_unique<Grid2D<float>>(kDramW, kDramH);
      ws_ = std::make_unique<sim::PersistentWorkspace>();
    }
    {
      Span f(ctx.trace, "setup.fill");
      seeded_fill(*a_, derive_seed(ctx.seed, 2));
    }
    Span c(ctx.trace, "persistent.cold_run");
    ++attempted_;
    if (!guarded("cold stencil", [&] { stencil_job(ctx); })) ++failed_;
    cold_ms_ = c.close();
    return s.close() * 1e-3;
  }

  void teardown() override {
    a_.reset();
    b_.reset();
    ws_.reset();
  }

  void run(Context& ctx, bool alternate_trace) override {
    const double cells = static_cast<double>(a_->size());
    // No warm-up: the multi-second set-up has just kept every CPU busy.
    rounds_ = closed_loop(ctx, 0.0, alternate_trace, [&](Round& r) {
      round_job(ctx.trace, "job.stencil2d", r, cells * kDramSteps, false, attempted_,
                failed_, [&] { stencil_job(ctx); });
      round_job(ctx.trace, "job.conv2d", r, cells, true, attempted_, failed_,
                [&] { conv_job(ctx); });
    });
  }

  void check(Context& ctx, RunResult& out) override {
    Span s(ctx.trace, "check.sweep_dram");
    const Index inner = 4;
    auto cells = sample_cells(derive_seed(ctx.seed, 3), kDramW, kDramH, 48);

    // The stencil job against the relaunch oracle (bit for bit) and the
    // scalar reference (tolerance), both run on windows cut around sampled
    // cells before the job ran.
    std::vector<Window> wins;
    for (const auto& [x, y] : cells) {
      wins.push_back(cut(*a_, x, y, shape_.order * kDramSteps + inner));
    }
    ++attempted_;
    if (!guarded("check stencil", [&] { stencil_job(ctx); })) {
      ++failed_;
      wins.clear();
    }
    const double tol =
        ssam::verify_tolerance<float>(shape_.taps.size()) * static_cast<double>(kDramSteps);
    for (Window& w : wins) {
      Grid2D<float> ref = w.g;
      Grid2D<float> ref_b(ref.width(), ref.height());
      ssam::ref::iterate2d<float>(ref, ref_b, shape_.taps, kDramSteps);
      Grid2D<float> scratch(w.g.width(), w.g.height());
      core::JobHints relaunch;
      relaunch.policy = core::IterationPolicy::kRelaunch;
      core::run_job(ctx.arch,
                    core::SimJob::stencil2d(w.g, scratch, shape_, kDramSteps, relaunch));
      if (!block_matches(w, w.g, *a_, inner, 0.0) || !block_matches(w, ref, *a_, inner, tol)) {
        ++out.mismatches;
        std::fprintf(stderr, "sweep_dram: stencil mismatch near (%lld, %lld)\n",
                     static_cast<long long>(w.cx), static_cast<long long>(w.cy));
        break;
      }
    }

    // The conv job against the scalar reference on sampled windows.
    ++attempted_;
    if (!guarded("check conv", [&] { conv_job(ctx); })) {
      ++failed_;
      cells.clear();
    }
    const double ctol = ssam::verify_tolerance<float>(filter_.size());
    for (const auto& [x, y] : cells) {
      const Window w = cut(*a_, x, y, 2 + inner);
      Grid2D<float> ref(w.g.width(), w.g.height());
      ssam::ref::conv2d<float>(w.g.cview(), filter_, 5, 5, ref.view());
      if (!block_matches(w, ref, *b_, inner, ctol)) {
        ++out.mismatches;
        std::fprintf(stderr, "sweep_dram: conv mismatch near (%lld, %lld)\n",
                     static_cast<long long>(x), static_cast<long long>(y));
        break;
      }
    }
    out.attempted += attempted_;
    out.failed += failed_;
  }

  void end_to_end(RunResult& out) override { closed_loop_end_to_end(rounds_, out); }
  bool own_layer_metrics(RunResult&) override { return false; }
  [[nodiscard]] double trace_overhead() const override {
    return closed_loop_overhead(rounds_);
  }
  [[nodiscard]] double cold_run_ms() const override { return cold_ms_; }
  Grid2D<float>& probe_in() override { return *a_; }
  Grid2D<float>& probe_out() override { return *b_; }

 private:
  void stencil_job(Context& ctx) {
    core::run_job(ctx.arch, core::SimJob::stencil2d(*a_, *b_, shape_, kDramSteps), nullptr,
                  ws_.get());
  }
  void conv_job(Context& ctx) {
    core::run_job(ctx.arch, core::SimJob::conv2d(*a_, *b_, filter_, 5, 5));
  }

  core::StencilShape<float> shape_;
  std::vector<float> filter_;
  std::unique_ptr<Grid2D<float>> a_, b_;
  std::unique_ptr<sim::PersistentWorkspace> ws_;
  std::vector<Round> rounds_;
  double cold_ms_ = 0.0;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

// ========================================================== iterate_resident

/// Cache-resident iteration: long persistent runs over arrays of at most
/// 1/8 of the LLC, where tile residency, halo channels, temporal fusion,
/// chain fusion and sharding do their work.
class IterateResident final : public Workload {
 public:
  double setup(Context& ctx) override {
    teardown();
    Span s(ctx.trace, "setup.iterate_resident");
    star2_ = core::star2d<float>(1);
    star3_ = core::star3d<float>(1);
    filter_ = seeded_filter(derive_seed(ctx.seed, 11));
    stages_.clear();
    for (int i = 0; i < kChainDepth; ++i) {
      stages_.push_back(core::ChainStage<float>::stencil(core::star2d<float>(1)));
    }
    {
      Span a(ctx.trace, "setup.alloc");
      st_ = std::make_unique<State>();
      ws_ = std::make_unique<sim::PersistentWorkspace>();
    }
    {
      Span f(ctx.trace, "setup.fill");
      seeded_fill(st_->a1, derive_seed(ctx.seed, 12));
      seeded_fill(st_->a4, derive_seed(ctx.seed, 13));
      seeded_fill(st_->a3, derive_seed(ctx.seed, 14));
      seeded_fill(st_->chain_in, derive_seed(ctx.seed, 15));
      seeded_fill(st_->a5, derive_seed(ctx.seed, 16));
      seeded_fill(st_->conv_in, derive_seed(ctx.seed, 17));
    }
    {
      Span c(ctx.trace, "persistent.cold_run");
      ++attempted_;
      if (!guarded("cold stencil", [&] { j1(ctx, st_->a1, st_->b1); })) ++failed_;
      cold_ms_ = c.close();
    }
    // The remaining job kinds' first runs (tile layouts, device group,
    // workspace growth) belong to set-up too.
    Span w(ctx.trace, "setup.warm_jobs");
    ++attempted_;
    const bool ok = guarded("warm jobs", [&] {
      j2(ctx, st_->a4, st_->b4);
      j3(ctx, st_->a3, st_->b3);
      j4(ctx, st_->chain_in, st_->chain_out);
      j5(ctx, st_->a5, st_->b5);
      j6(ctx);
    });
    if (!ok) ++failed_;
    w.close();
    return s.close() * 1e-3;
  }

  void teardown() override {
    st_.reset();
    ws_.reset();
  }

  void run(Context& ctx, bool alternate_trace) override {
    const double n2 = static_cast<double>(kResN) * kResN;
    const double n3 = static_cast<double>(kRes3X) * kRes3Y * kRes3Z;
    State& s = *st_;
    rounds_ = closed_loop(ctx, kWarmupS, alternate_trace, [&](Round& r) {
      round_job(ctx.trace, "job.stencil2d", r, n2 * kResSweeps, false, attempted_, failed_,
                [&] { j1(ctx, s.a1, s.b1); });
      round_job(ctx.trace, "job.stencil2d_t4", r, n2 * kResTemporalSweeps * 4, false,
                attempted_, failed_, [&] { j2(ctx, s.a4, s.b4); });
      round_job(ctx.trace, "job.stencil3d", r, n3 * kRes3DSweeps, false, attempted_, failed_,
                [&] { j3(ctx, s.a3, s.b3); });
      round_job(ctx.trace, "job.chain2d", r, n2 * kChainDepth, false, attempted_, failed_,
                [&] { j4(ctx, s.chain_in, s.chain_out); });
      round_job(ctx.trace, "job.stencil2d_sharded2", r, n2 * kResSweeps, false, attempted_,
                failed_, [&] { j5(ctx, s.a5, s.b5); });
      round_job(ctx.trace, "job.conv2d", r, n2, true, attempted_, failed_,
                [&] { j6(ctx); });
    });
  }

  void check(Context& ctx, RunResult& out) override {
    Span sp(ctx.trace, "check.iterate_resident");
    State& s = *st_;
    core::JobHints relaunch;
    relaunch.policy = core::IterationPolicy::kRelaunch;
    auto expect = [&](bool same, const char* what) {
      if (!same) {
        ++out.mismatches;
        std::fprintf(stderr, "iterate_resident: %s differs from its oracle\n", what);
      }
    };
    // Each multi-step job once more from its current state, against the
    // oracle its differential suite uses: relaunch for the persistent
    // engine (t = 1 and t = 4, 2D and 3D), staged for the fused chain,
    // single-device for the sharded run.
    auto oracle = [&](const char* what, auto& a, auto& b, auto&& job, auto&& ref_job) {
      auto ra = a;
      auto rb = b;
      attempted_ += 2;
      const bool ok = guarded(what, [&] { job(a, b); }) && guarded(what, [&] {
                        ref_job(ra, rb);
                      });
      if (!ok) {
        ++failed_;
        return;
      }
      expect(same_bits(a, ra), what);
    };
    oracle("stencil2d vs relaunch", s.a1, s.b1, [&](auto& a, auto& b) { j1(ctx, a, b); },
           [&](auto& a, auto& b) {
             core::run_job(ctx.arch,
                           core::SimJob::stencil2d(a, b, star2_, kResSweeps, relaunch));
           });
    oracle("stencil2d t=4 vs relaunch", s.a4, s.b4, [&](auto& a, auto& b) { j2(ctx, a, b); },
           [&](auto& a, auto& b) {
             core::JobHints h = relaunch;
             h.t = 4;
             core::run_job(ctx.arch,
                           core::SimJob::stencil2d(a, b, star2_, kResTemporalSweeps, h));
           });
    oracle("stencil3d vs relaunch", s.a3, s.b3, [&](auto& a, auto& b) { j3(ctx, a, b); },
           [&](auto& a, auto& b) {
             core::run_job(ctx.arch,
                           core::SimJob::stencil3d(a, b, star3_, kRes3DSweeps, relaunch));
           });
    oracle("sharded(2) vs single device", s.a5, s.b5,
           [&](auto& a, auto& b) { j5(ctx, a, b); },
           [&](auto& a, auto& b) { j1(ctx, a, b); });
    // A chain writes its output grid, so that grid takes the state's place.
    oracle("chain2d fused vs staged", s.chain_out, s.chain_in,
           [&](auto& out_grid, auto& in) { j4(ctx, in, out_grid); },
           [&](auto& out_grid, auto& in) {
             core::run_job(ctx.arch, core::SimJob::chain2d(in, out_grid, stages_, relaunch));
           });
    // The single-launch conv against the scalar reference on sampled cells.
    ++attempted_;
    auto cells = sample_cells(derive_seed(ctx.seed, 18), kResN, kResN, 64);
    if (!guarded("conv", [&] { j6(ctx); })) {
      ++failed_;
      cells.clear();
    }
    const double tol = ssam::verify_tolerance<float>(filter_.size());
    const Index inner = 4;
    for (const auto& [x, y] : cells) {
      const Window w = cut(s.conv_in, x, y, 2 + inner);
      Grid2D<float> ref(w.g.width(), w.g.height());
      ssam::ref::conv2d<float>(w.g.cview(), filter_, 5, 5, ref.view());
      if (!block_matches(w, ref, s.conv_out, inner, tol)) {
        expect(false, "conv2d vs reference");
        break;
      }
    }
    out.attempted += attempted_;
    out.failed += failed_;
  }

  void end_to_end(RunResult& out) override { closed_loop_end_to_end(rounds_, out); }
  bool own_layer_metrics(RunResult&) override { return false; }
  [[nodiscard]] double trace_overhead() const override {
    return closed_loop_overhead(rounds_);
  }
  [[nodiscard]] double cold_run_ms() const override { return cold_ms_; }
  Grid2D<float>& probe_in() override { return st_->a1; }
  Grid2D<float>& probe_out() override { return st_->b1; }

 private:
  struct State {
    Grid2D<float> a1{kResN, kResN}, b1{kResN, kResN};
    Grid2D<float> a4{kResN, kResN}, b4{kResN, kResN};
    Grid3D<float> a3{kRes3X, kRes3Y, kRes3Z}, b3{kRes3X, kRes3Y, kRes3Z};
    Grid2D<float> chain_in{kResN, kResN}, chain_out{kResN, kResN};
    Grid2D<float> a5{kResN, kResN}, b5{kResN, kResN};
    Grid2D<float> conv_in{kResN, kResN}, conv_out{kResN, kResN};
  };

  // Every job uses default hints except the t = 4 job's temporal depth.
  void j1(Context& ctx, Grid2D<float>& a, Grid2D<float>& b) {
    core::run_job(ctx.arch, core::SimJob::stencil2d(a, b, star2_, kResSweeps), nullptr,
                  ws_.get());
  }
  void j2(Context& ctx, Grid2D<float>& a, Grid2D<float>& b) {
    core::JobHints h;
    h.t = 4;
    core::run_job(ctx.arch, core::SimJob::stencil2d(a, b, star2_, kResTemporalSweeps, h),
                  nullptr, ws_.get());
  }
  void j3(Context& ctx, Grid3D<float>& a, Grid3D<float>& b) {
    core::run_job(ctx.arch, core::SimJob::stencil3d(a, b, star3_, kRes3DSweeps), nullptr,
                  ws_.get());
  }
  void j4(Context& ctx, Grid2D<float>& in, Grid2D<float>& out) {
    core::run_job(ctx.arch, core::SimJob::chain2d(in, out, stages_), nullptr, ws_.get());
  }
  /// The t = 1 job sharded over two devices of two workers each: the same
  /// four workers the global pool has.
  void j5(Context& ctx, Grid2D<float>& a, Grid2D<float>& b) {
    core::PersistentOptions opt;
    opt.shard = core::ShardPolicy::sharded(2, &sim::DeviceGroup::shared(2));
    core::iterate_stencil2d_persistent<float>(ctx.arch, a, b, star2_, kResSweeps, opt);
  }
  void j6(Context& ctx) {
    core::run_job(ctx.arch, core::SimJob::conv2d(st_->conv_in, st_->conv_out, filter_, 5, 5));
  }

  core::StencilShape<float> star2_, star3_;
  std::vector<float> filter_;
  std::vector<core::ChainStage<float>> stages_;
  std::unique_ptr<State> st_;
  std::unique_ptr<sim::PersistentWorkspace> ws_;
  std::vector<Round> rounds_;
  double cold_ms_ = 0.0;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

// ============================================================ serve_openloop

/// Open-loop serving: Poisson arrivals at a fixed rate into a SimServer
/// over four 1-worker devices. Kernels take tens of microseconds, so
/// admission, fair queuing, dispatch, workspace lease and completion set
/// the latency.
class ServeOpenloop final : public Workload {
 public:
  double setup(Context& ctx) override {
    teardown();
    Span s(ctx.trace, "setup.serve_openloop");
    {
      Span a(ctx.trace, "setup.alloc");
      build_kinds(ctx);
      slots_.clear();
      for (int k = 0; k < kKinds; ++k) {
        for (int i = 0; i < kSlotsPerKind; ++i) slots_.push_back(make_slot(k));
      }
    }
    {
      // Goldens: each kind run directly on the global pool from its
      // pristine input. The first is the workload's cold persistent run.
      Span g(ctx.trace, "setup.golden");
      for (int k = 0; k < kKinds; ++k) {
        Kind& kd = kinds_[static_cast<std::size_t>(k)];
        Slot gold = make_slot(k);
        Span c(ctx.trace, k == 0 ? "persistent.cold_run" : "setup.golden_job");
        ++attempted_;
        if (!guarded("golden", [&] { core::run_job(ctx.arch, job_for(gold, 0)); })) {
          ++failed_;
        }
        const double ms = c.close();
        if (k == 0) cold_ms_ = ms;
        kd.golden = std::move(gold);
      }
    }
    {
      Span sv(ctx.trace, "setup.server");
      group_ = std::make_unique<sim::DeviceGroup>(std::vector<sim::DeviceOptions>{
          {1, {}, "srv0"}, {1, {}, "srv1"}, {1, {}, "srv2"}, {1, {}, "srv3"}});
      core::ServerOptions sopt;
      sopt.arch = &ctx.arch;
      sopt.group = group_.get();
      server_ = std::make_unique<core::SimServer>(sopt);
    }
    {
      // One pass over every slot fills the devices' warm workspace pools.
      Span w(ctx.trace, "setup.server_warm");
      (void)verify_burst(false);
    }
    return s.close() * 1e-3;
  }

  void teardown() override {
    server_.reset();
    group_.reset();
    slots_.clear();
    kinds_.clear();
    reqs_.clear();
  }

  void run(Context& ctx, bool alternate_trace) override {
    {
      const bool was = ctx.trace.enabled();
      ctx.trace.set_enabled(false);
      drive(ctx, kWarmupS, false, 20);
      ctx.trace.set_enabled(was);
      book_requests();
    }
    Span phase(ctx.trace, "workload.phase");
    phase_span_ = ctx.trace.current();
    drive(ctx, ctx.seconds, alternate_trace, 21);
    phase_s_ = ctx.seconds;
  }

  void check(Context& ctx, RunResult& out) override {
    Span s(ctx.trace, "check.serve_openloop");
    book_requests();
    // Every slot's last served output, then one more concurrent pass over
    // all slots, against the direct run_job goldens.
    for (const Slot& sl : slots_) {
      if (sl.fut.valid() && !matches_golden(sl)) ++out.mismatches;
    }
    out.mismatches += verify_burst(true);
    if (out.mismatches > 0) {
      std::fprintf(stderr, "serve_openloop: %llu served outputs differ from direct calls\n",
                   static_cast<unsigned long long>(out.mismatches));
    }
    out.attempted += attempted_;
    out.failed += failed_;
  }

  void end_to_end(RunResult& out) override {
    const Windows w = windows();
    out.add("stencil_gcells_per_s", median(w.stencil), "Gcell/s");
    out.add("conv_gcells_per_s", median(w.conv), "Gcell/s");
    out.add("sojourn_ms_p50", median(w.p50), "ms");
    out.add("sojourn_ms_p90", median(w.p90), "ms");
    out.add("goodput_jobs_per_s", median(w.good), "1/s");
  }

  bool own_layer_metrics(RunResult& out) override {
    std::vector<double> submit_us, queue, exec, lag;
    for (const Req& q : reqs_) {
      submit_us.push_back(ms_between(q.sub_b, q.sub_e) * 1e3);
      lag.push_back(ms_between(q.due, q.sub_b));
      if (q.status != core::JobStatus::kCompleted) continue;
      queue.push_back(q.queue_ms);
      exec.push_back(q.exec_ms);
    }
    // Server overhead: sojourn (from submit, so generator lag is excluded)
    // minus a direct run_job of the same kind on an idle 1-worker device.
    sim::Device idle(0, sim::DeviceOptions{1, {}, "direct"});
    std::vector<double> direct_ms(kKinds, 0.0);
    for (int k = 0; k < kKinds; ++k) {
      Slot sl = make_slot(k);
      std::vector<double> t;
      for (int i = 0; i < 41; ++i) {
        restore(sl);
        const auto b = Clock::now();
        core::run_job(*arch_, job_for(sl, 0), &idle);
        t.push_back(ms_between(b, Clock::now()));
      }
      direct_ms[static_cast<std::size_t>(k)] = median(t);
    }
    std::vector<double> overhead_us;
    for (const Req& q : reqs_) {
      if (q.status != core::JobStatus::kCompleted) continue;
      overhead_us.push_back(
          (ms_between(q.sub_b, q.done) - direct_ms[static_cast<std::size_t>(q.kind)]) * 1e3);
    }
    const core::SimServer::Stats st = server_->stats();
    out.add("server.submit_us_p50", percentile(submit_us, 0.50), "us");
    out.add("server.submit_us_p99", percentile(submit_us, 0.99), "us");
    out.add("server.queue_ms_p50", percentile(queue, 0.50), "ms");
    out.add("server.queue_ms_p99", percentile(queue, 0.99), "ms");
    out.add("server.exec_ms_p50", percentile(exec, 0.50), "ms");
    out.add("server.exec_ms_p99", percentile(exec, 0.99), "ms");
    out.add("server.overhead_us_p50", percentile(overhead_us, 0.50), "us");
    out.add("server.sojourn_ms_p99", median(windows().p99), "ms");
    out.add("server.rejected", static_cast<double>(st.rejected), "count");
    out.add("server.retries", static_cast<double>(st.retries), "count");
    out.add("server.completed_over_submitted",
            st.submitted > 0 ? static_cast<double>(st.completed) / st.submitted : 0.0, "1");
    out.add("client.lag_ms_p99", percentile(lag, 0.99), "ms");
    out.add("client.lag_ms_max", percentile(lag, 1.0), "ms");
    return true;
  }

  /// Per-window statistics of the timed phase, by due time.
  struct Windows {
    std::vector<double> p50, p90, p99, stencil, conv, good;
  };
  [[nodiscard]] Windows windows() const {
    const int nwin = std::max(1, static_cast<int>(phase_s_ / kWindowS));
    const double win_s = phase_s_ / nwin;
    struct Win {
      std::vector<double> sojourn;
      double stencil = 0.0, conv = 0.0, good = 0.0;
    };
    std::vector<Win> wins(static_cast<std::size_t>(nwin));
    const auto t0 = reqs_.empty() ? Clock::now() : reqs_.front().due;
    for (const Req& q : reqs_) {
      const double at = std::chrono::duration<double>(q.due - t0).count();
      Win& w = wins[std::min<std::size_t>(static_cast<std::size_t>(at / win_s),
                                          wins.size() - 1)];
      const bool ok = q.status == core::JobStatus::kCompleted;
      const double soj = ok ? ms_between(q.due, q.done) : 1e9;  // a failure misses any limit
      w.sojourn.push_back(soj);
      if (!ok) continue;
      const Kind& k = kinds_[static_cast<std::size_t>(q.kind)];
      (k.conv ? w.conv : w.stencil) += k.cell_updates;
      if (soj <= kSloMs) w.good += 1.0;
    }
    Windows r;
    for (const Win& w : wins) {
      r.p50.push_back(percentile(w.sojourn, 0.50));
      r.p90.push_back(percentile(w.sojourn, 0.90));
      r.p99.push_back(percentile(w.sojourn, 0.99));
      r.stencil.push_back(w.stencil / win_s * 1e-9);
      r.conv.push_back(w.conv / win_s * 1e-9);
      r.good.push_back(w.good / win_s);
    }
    return r;
  }

  [[nodiscard]] double trace_overhead() const override {
    std::vector<double> on, off;
    for (const Req& q : reqs_) {
      if (q.status != core::JobStatus::kCompleted) continue;
      (q.traced ? on : off).push_back(ms_between(q.due, q.done));
    }
    if (on.empty() || off.empty()) return 0.0;
    return median(on) / median(off) - 1.0;
  }
  [[nodiscard]] double cold_run_ms() const override { return cold_ms_; }
  Grid2D<float>& probe_in() override { return kinds_[0].golden.a2; }
  Grid2D<float>& probe_out() override { return kinds_[0].golden.b2; }

 private:
  static constexpr int kKinds = 5;

  /// One job template of the mix, with its pristine input and golden output.
  struct Slot {
    int kind = 0;
    Grid2D<float> a2{1, 1}, b2{1, 1};
    Grid3D<float> a3{1, 1, 1}, b3{1, 1, 1};
    core::JobFuture fut;
    bool busy = false;
  };
  struct Kind {
    core::JobKind job = core::JobKind::kStencil2D;
    Index w = 1, h = 1, d = 1;
    int steps = 1;
    core::JobHints hints;
    bool conv = false;
    double cell_updates = 0.0;
    Grid2D<float> pristine2{1, 1};
    Grid3D<float> pristine3{1, 1, 1};
    Slot golden;
  };
  struct Req {
    Clock::time_point due, sub_b, sub_e, done;
    int kind = 0, tenant = 0, slot = 0;
    bool traced = false;
    core::JobStatus status = core::JobStatus::kPending;
    double queue_ms = 0.0, exec_ms = 0.0;
  };

  void book_requests() {
    for (const Req& q : reqs_) {
      ++attempted_;
      if (q.status != core::JobStatus::kCompleted) ++failed_;
    }
  }

  /// Offers Poisson arrivals for `seconds` (seeded by `stream`), then
  /// waits for every job; the requests replace reqs_.
  void drive(Context& ctx, double seconds, bool alternate_trace, std::uint64_t stream) {
    reqs_.clear();
    reqs_.reserve(static_cast<std::size_t>(seconds * kServeRate * 1.2) + 16);
    ssam::SplitMix64 rng(derive_seed(ctx.seed, stream));
    std::vector<int> cursor(kKinds, 0);
    std::vector<std::size_t> outstanding;
    Trace& tr = ctx.trace;
    auto poll = [&] {
      const auto now = Clock::now();
      for (std::size_t i = 0; i < outstanding.size();) {
        Req& q = reqs_[outstanding[i]];
        Slot& sl = slots_[static_cast<std::size_t>(q.slot)];
        if (!sl.fut.ready()) {
          ++i;
          continue;
        }
        q.done = now;
        const core::JobResult& jr = sl.fut.wait();
        q.status = jr.status;
        q.queue_ms = jr.queue_ms;
        q.exec_ms = jr.exec_ms;
        sl.busy = false;
        if (q.traced) {
          const std::uint64_t id = outstanding[i] + 1;
          const auto qe = q.sub_b + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double, std::milli>(q.queue_ms));
          const auto xe = qe + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(q.exec_ms));
          tr.add("job.sojourn", q.due, q.done, phase_span_, id, 1);
          tr.add("server.queue", q.sub_b, qe, phase_span_, id, 1);
          tr.add("server.exec", qe, xe, phase_span_, id, 1);
        }
        outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
      }
    };
    // Polls every kPollTick until `until`: completions are stamped at most
    // one tick late. (Blocking on the oldest job instead let the vCPUs go
    // idle between jobs and made sojourn slower and noisier.)
    auto wait_until = [&](Clock::time_point until) {
      poll();
      const auto now = Clock::now();
      if (now < until) {
        std::this_thread::sleep_for(std::min<Clock::duration>(until - now, kPollTick));
      }
    };

    const auto t0 = Clock::now();
    const double mean_gap_s = 1.0 / kServeRate;
    double due_s = 0.0;
    for (std::uint64_t n = 0;; ++n) {
      due_s += -mean_gap_s * std::log(std::max(1e-12, 1.0 - rng.next_unit()));
      if (due_s >= seconds) break;
      Req q;
      q.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s));
      q.kind = static_cast<int>(rng.next_below(kKinds));
      q.tenant = static_cast<int>(rng.next_below(kTenants));
      q.traced = alternate_trace && n % 2 == 0;
      if (alternate_trace) tr.set_enabled(q.traced);
      const std::uint64_t id = reqs_.size() + 1;
      {
        Span w(tr, "client.wait", id);
        while (Clock::now() < q.due) wait_until(q.due);
        poll();
        // The slot ring is deep enough that this only waits when the server
        // has fallen far behind; that time shows up as generator lag.
        int& c = cursor[static_cast<std::size_t>(q.kind)];
        q.slot = q.kind * kSlotsPerKind + c;
        c = (c + 1) % kSlotsPerKind;
        while (slots_[static_cast<std::size_t>(q.slot)].busy) {
          wait_until(Clock::now() + kPollTick);
        }
      }
      Slot& sl = slots_[static_cast<std::size_t>(q.slot)];
      {
        Span r(tr, "client.restore", id);
        restore(sl);
      }
      {
        Span sub(tr, "server.submit", id);
        q.sub_b = Clock::now();
        sl.fut = server_->submit(job_for(sl, q.tenant));
        q.sub_e = Clock::now();
      }
      sl.busy = true;
      outstanding.push_back(reqs_.size());
      reqs_.push_back(q);
    }
    if (alternate_trace) tr.set_enabled(true);
    Span d(tr, "client.drain");
    while (!outstanding.empty()) wait_until(Clock::now() + kPollTick);
  }

  void build_kinds(Context& ctx) {
    arch_ = &ctx.arch;
    star2_ = core::star2d<float>(1);
    star3_ = core::star3d<float>(1);
    filter_ = seeded_filter(derive_seed(ctx.seed, 22));
    stages_.assign(3, core::ChainStage<float>::stencil(core::star2d<float>(1)));
    kinds_.clear();
    kinds_.resize(kKinds);
    auto k2 = [&](Kind& k, core::JobKind job, Index w, Index h, int steps) {
      k.job = job;
      k.w = w;
      k.h = h;
      k.steps = steps;
      k.pristine2 = Grid2D<float>(w, h);
      seeded_fill(k.pristine2, derive_seed(ctx.seed, 30 + static_cast<std::uint64_t>(job)));
      k.cell_updates = static_cast<double>(w) * h * steps;
    };
    k2(kinds_[0], core::JobKind::kStencil2D, 256, 128, 2);  // small 2D stencil
    k2(kinds_[1], core::JobKind::kConv2D, 96, 96, 1);       // conv2d, batch lane
    kinds_[1].conv = true;
    {
      Kind& k = kinds_[2];  // small 3D stencil
      k.job = core::JobKind::kStencil3D;
      k.w = 48;
      k.h = 32;
      k.d = 8;
      k.steps = 1;
      k.pristine3 = Grid3D<float>(k.w, k.h, k.d);
      seeded_fill(k.pristine3, derive_seed(ctx.seed, 34));
      k.cell_updates = static_cast<double>(k.w) * k.h * k.d * k.steps;
    }
    k2(kinds_[3], core::JobKind::kChain, 128, 96, 3);       // depth-3 chain
    k2(kinds_[4], core::JobKind::kStencil2D, 128, 64, 3);   // forced persistent
    kinds_[4].hints.policy = core::IterationPolicy::kPersistent;
  }

  Slot make_slot(int k) const {
    const Kind& kd = kinds_[static_cast<std::size_t>(k)];
    Slot s;
    s.kind = k;
    if (kd.job == core::JobKind::kStencil3D) {
      s.a3 = kd.pristine3;
      s.b3 = Grid3D<float>(kd.w, kd.h, kd.d);
    } else {
      s.a2 = kd.pristine2;
      s.b2 = Grid2D<float>(kd.w, kd.h);
    }
    return s;
  }

  /// Rewinds a stencil slot's state grid to the pristine input (conv and
  /// chain jobs never write their input).
  void restore(Slot& s) const {
    const Kind& kd = kinds_[static_cast<std::size_t>(s.kind)];
    if (kd.job == core::JobKind::kStencil2D) {
      std::memcpy(s.a2.data(), kd.pristine2.data(),
                  static_cast<std::size_t>(s.a2.size()) * sizeof(float));
    } else if (kd.job == core::JobKind::kStencil3D) {
      std::memcpy(s.a3.data(), kd.pristine3.data(),
                  static_cast<std::size_t>(s.a3.size()) * sizeof(float));
    }
  }

  core::SimJob job_for(Slot& s, int tenant) {
    const Kind& kd = kinds_[static_cast<std::size_t>(s.kind)];
    core::SimJob j;
    switch (kd.job) {
      case core::JobKind::kStencil2D:
        j = core::SimJob::stencil2d(s.a2, s.b2, star2_, kd.steps, kd.hints);
        break;
      case core::JobKind::kStencil3D:
        j = core::SimJob::stencil3d(s.a3, s.b3, star3_, kd.steps, kd.hints);
        break;
      case core::JobKind::kConv2D:
        j = core::SimJob::conv2d(s.a2, s.b2, filter_, 5, 5, kd.hints);
        break;
      case core::JobKind::kChain:
        j = core::SimJob::chain2d(s.a2, s.b2, stages_, kd.hints);
        break;
    }
    j.tenant = tenant;
    return j;
  }

  [[nodiscard]] bool matches_golden(const Slot& s) const {
    const Kind& kd = kinds_[static_cast<std::size_t>(s.kind)];
    switch (kd.job) {
      case core::JobKind::kStencil3D:
        return same_bits(s.a3, kd.golden.a3);
      case core::JobKind::kStencil2D:
        return same_bits(s.a2, kd.golden.a2);
      default:
        return same_bits(s.b2, kd.golden.b2);
    }
  }

  /// Submits every slot once, concurrently, and waits. With `book`, books
  /// the jobs and returns how many outputs differ from the goldens.
  std::uint64_t verify_burst(bool book) {
    for (Slot& s : slots_) {
      restore(s);
      s.fut = server_->submit(job_for(s, s.kind % kTenants));
    }
    std::uint64_t bad = 0;
    for (Slot& s : slots_) {
      const core::JobResult& r = s.fut.wait();
      if (!book) continue;
      ++attempted_;
      if (r.status != core::JobStatus::kCompleted) {
        ++failed_;
      } else if (!matches_golden(s)) {
        ++bad;
      }
    }
    return bad;
  }

  const sim::ArchSpec* arch_ = nullptr;
  core::StencilShape<float> star2_, star3_;
  std::vector<float> filter_;
  std::vector<core::ChainStage<float>> stages_;
  std::vector<Kind> kinds_;
  std::vector<Slot> slots_;
  std::vector<Req> reqs_;
  std::unique_ptr<sim::DeviceGroup> group_;
  std::unique_ptr<core::SimServer> server_;
  int phase_span_ = -1;
  double phase_s_ = 0.0;
  double cold_ms_ = 0.0;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sweep_dram") return std::make_unique<SweepDram>();
  if (name == "iterate_resident") return std::make_unique<IterateResident>();
  if (name == "serve_openloop") return std::make_unique<ServeOpenloop>();
  return nullptr;
}

double dram_array_to_llc(const HostInfo& host) {
  const double bytes = static_cast<double>(kDramW) * kDramH * sizeof(float);
  return host.llc_bytes > 0 ? bytes / static_cast<double>(host.llc_bytes) : 0.0;
}

}  // namespace perfbench
