// Per-layer probes of the traced run. Each probe calls one public entry
// point of a layer inside a span and reads its number off that span (or off
// the layer's own counters), so every per-layer metric is also visible in
// the written trace.
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/autotune.hpp"
#include "core/iterate_persistent.hpp"
#include "core/job.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/device.hpp"
#include "gpusim/vec.hpp"
#include "workloads.hpp"

namespace perfbench {

using ssam::Grid2D;
using ssam::Index;
namespace core = ssam::core;
namespace sim = ssam::sim;

namespace {

constexpr int kReps = 3;
constexpr Index kProbeN = 2048;  // resident 2D problem of the engine probes
constexpr int kProbeSweeps = 32;

template <typename Fn>
double median_span_ms(Trace& tr, const char* name, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Span s(tr, name);
    fn();
    ms.push_back(s.close());
  }
  return median(ms);
}

/// Copy bandwidth over the global pool, counting read plus write bytes.
double stream_gb_per_s(Trace& tr, const Grid2D<float>& src, Grid2D<float>& dst) {
  const std::int64_t n = src.size();
  const std::int64_t chunk = std::int64_t{1} << 18;  // 1 MiB of floats
  const double ms = median_span_ms(tr, "memory.copy", 5, [&] {
    ssam::ThreadPool::global().parallel_run(
        (n + chunk - 1) / chunk, 1, [&](ssam::ThreadPool::ChunkClaimer& c) {
          std::int64_t b = 0;
          std::int64_t e = 0;
          while (c.next(b, e)) {
            for (std::int64_t i = b; i < e; ++i) {
              const std::int64_t lo = i * chunk;
              const std::int64_t len = std::min(chunk, n - lo);
              std::memcpy(dst.data() + lo, src.data() + lo,
                          static_cast<std::size_t>(len) * sizeof(float));
            }
          }
        });
  });
  return 2.0 * static_cast<double>(n) * sizeof(float) / ms * 1e-6;
}

/// Shuffle-plus-MAD loop over the 32-lane Vec engine: the systolic step of
/// every SSAM kernel. Four independent chains keep the backend busy.
double lane_ops_per_s(Trace& tr) {
  using V = sim::Vec<float>;
  constexpr int kIters = 1 << 20;
  volatile float sink = 0.0f;
  const double ms = median_span_ms(tr, "simd.shuffle_mad", 5, [&] {
    V x[4] = {V::iota(0.0f), V::iota(1.0f), V::iota(2.0f), V::iota(3.0f)};
    V acc[4] = {V::splat(0.0f), V::splat(0.0f), V::splat(0.0f), V::splat(0.0f)};
    for (int i = 0; i < kIters; ++i) {
      for (int k = 0; k < 4; ++k) {
        x[k] = V::shift_up(x[k], 1);
        acc[k] = V::mad(x[k], 0.999f, acc[k]);
      }
    }
    sink = sink + acc[0][31] + acc[1][7] + acc[2][3] + acc[3][0];
  });
  return 2.0 * 4.0 * kIters * sim::kWarpSize / (ms * 1e-3);
}

}  // namespace

void add_layer_metrics(Context& ctx, Workload& w, RunResult& out) {
  Trace& tr = ctx.trace;
  const sim::ArchSpec& arch = ctx.arch;
  const int workers = ssam::ThreadPool::global().size();

  // ---- memory and kernel, on the workload's own 2D grid pair
  Grid2D<float>& a = w.probe_in();
  Grid2D<float>& b = w.probe_out();
  const double cells = static_cast<double>(a.size());
  const double stream = stream_gb_per_s(tr, a, b);
  const core::StencilShape<float> star2 = core::star2d<float>(2);
  const double sweep_ms = median_span_ms(tr, "kernel.stencil_sweep", kReps, [&] {
    core::run_job(arch, core::SimJob::stencil2d(a, b, star2, 1));
  });
  const std::vector<float> filter(25, 0.04f);
  const double conv_ms = median_span_ms(tr, "kernel.conv_launch", kReps, [&] {
    core::run_job(arch, core::SimJob::conv2d(a, b, filter, 5, 5));
  });
  sim::Device one(0, sim::DeviceOptions{1, {}, "one"});
  const double sweep_1w_ms = median_span_ms(tr, "kernel.stencil_sweep_1w", 1, [&] {
    core::run_job(arch, core::SimJob::stencil2d(a, b, star2, 1), &one);
  });
  const double bytes = 2.0 * cells * sizeof(float);  // computed: read in, write out
  out.add("memory.stream_gb_per_s", stream, "GB/s");
  out.add("kernel.stencil_sweep_ms", sweep_ms, "ms");
  out.add("kernel.conv_launch_ms", conv_ms, "ms");
  out.add("kernel.bytes_moved", bytes, "B");
  out.add("kernel.bw_fraction", bytes / sweep_ms * 1e-6 / stream, "1");
  out.add("kernel.gcells_per_s_1w", cells / sweep_1w_ms * 1e-6, "Gcell/s");
  out.add("kernel.scaling_eff", sweep_1w_ms / (workers * sweep_ms), "1");

  out.add("simd.lane_ops_per_s", lane_ops_per_s(tr), "1/s");

  // ---- engines, on one resident 2D problem
  const core::StencilShape<float> star1 = core::star2d<float>(1);
  Grid2D<float> p(kProbeN, kProbeN);
  Grid2D<float> q(kProbeN, kProbeN);
  seeded_fill(p, derive_seed(ctx.seed, 101));
  auto job = [&](core::JobHints h = {}) {
    return core::SimJob::stencil2d(p, q, star1, kProbeSweeps, h);
  };
  const double run_ms =
      median_span_ms(tr, "persistent.run", kReps, [&] { core::run_job(arch, job()); });
  core::JobHints relaunch;
  relaunch.policy = core::IterationPolicy::kRelaunch;
  const double relaunch_ms = median_span_ms(tr, "persistent.relaunch", kReps,
                                            [&] { core::run_job(arch, job(relaunch)); });
  sim::Device pinned(0, sim::DeviceOptions{workers, {}, "pinned"});
  {
    Span s(tr, "persistent.pinned_run");
    core::run_job(arch, job(), &pinned);
  }
  out.add("persistent.run_ms", run_ms, "ms");
  out.add("persistent.relaunch_ms", relaunch_ms, "ms");
  out.add("persistent.speedup_vs_relaunch", relaunch_ms / run_ms, "1");
  out.add("persistent.halo_bytes", static_cast<double>(pinned.counters().halo_bytes_out.load()),
          "B");
  out.add("persistent.sweeps", static_cast<double>(pinned.counters().sweeps.load()), "count");
  out.add("persistent.cold_run_ms", w.cold_run_ms(), "ms");

  // Equal worker budget: the global pool's workers against two devices
  // that split the same host.
  const double single_ms = median_span_ms(tr, "shard.single", kReps, [&] {
    core::iterate_stencil2d_persistent<float>(arch, p, q, star1, kProbeSweeps);
  });
  sim::DeviceGroup& group = sim::DeviceGroup::shared(2);
  double seam_bytes = 0.0;
  double seam_epochs = 0.0;
  const double sharded_ms = median_span_ms(tr, "shard.sharded2", kReps, [&] {
    for (int d = 0; d < group.size(); ++d) group.device(d).counters().reset();
    core::PersistentOptions opt;
    opt.shard = core::ShardPolicy::sharded(2, &group);
    core::iterate_stencil2d_persistent<float>(arch, p, q, star1, kProbeSweeps, opt);
    seam_bytes = 0.0;
    seam_epochs = 0.0;
    for (int d = 0; d < group.size(); ++d) {
      seam_bytes += static_cast<double>(group.device(d).counters().seam_bytes_out.load());
      seam_epochs += static_cast<double>(group.device(d).counters().seam_epochs_out.load());
    }
  });
  out.add("shard.single_ms", single_ms, "ms");
  out.add("shard.sharded2_ms", sharded_ms, "ms");
  out.add("shard.seam_bytes", seam_bytes, "B");
  out.add("shard.seam_epochs", seam_epochs, "count");

  const std::vector<core::ChainStage<float>> stages(
      8, core::ChainStage<float>::stencil(core::star2d<float>(1)));
  const double fused_ms = median_span_ms(tr, "chain.fused", kReps, [&] {
    core::run_job(arch, core::SimJob::chain2d(p, q, stages));
  });
  const double staged_ms = median_span_ms(tr, "chain.staged", kReps, [&] {
    core::run_job(arch, core::SimJob::chain2d(p, q, stages, relaunch));
  });
  out.add("chain.fused_ms", fused_ms, "ms");
  out.add("chain.staged_ms", staged_ms, "ms");
  out.add("chain.fused_speedup", staged_ms / fused_ms, "1");

  // ---- workspace lease: a first lease on a fresh device plus the first
  // carve of a 2048^2 ping/pong residence arena, then warm leases.
  {
    sim::Device fresh(0, sim::DeviceOptions{1, {}, "fresh"});
    double cold_ms = 0.0;
    {
      Span s(tr, "workspace.lease_cold");
      sim::WorkspaceLease l = fresh.lease_workspace();
      (void)l.get()->arena(2 * static_cast<std::size_t>(p.size()) * sizeof(float));
      cold_ms = s.close();
    }
    std::vector<double> warm_us;
    for (int i = 0; i < 1001; ++i) {
      Span s(tr, "workspace.lease");
      sim::WorkspaceLease l = fresh.lease_workspace();
      warm_us.push_back(s.close() * 1e3);
    }
    out.add("workspace.lease_us_p50", median(warm_us), "us");
    out.add("workspace.lease_cold_ms", cold_ms, "ms");
  }

  // ---- autotuner: a private tuner with its own cache file, cold then warm.
  {
    const std::string path = ctx.scratch_dir + "/tune_cache.json";
    std::remove(path.c_str());
    core::TunerOptions topt;
    topt.cache_path = path;
    core::AutoTuner tuner(topt);
    Grid2D<float> tp(512, 512);
    Grid2D<float> tq(512, 512);
    seeded_fill(tp, derive_seed(ctx.seed, 102));
    const core::SimJob tj = core::SimJob::stencil2d(tp, tq, star1, 16);
    const double cold_ms =
        median_span_ms(tr, "autotune.tune_cold", 1, [&] { (void)tuner.resolve(arch, tj); });
    const std::uint64_t measurements = tuner.stats().measurements;
    std::vector<double> warm_us;
    for (int i = 0; i < 201; ++i) {
      Span s(tr, "autotune.resolve");
      (void)tuner.resolve(arch, tj);
      warm_us.push_back(s.close() * 1e3);
    }
    const core::TuneStats st = tuner.stats();
    out.add("autotune.tune_cold_ms", cold_ms, "ms");
    out.add("autotune.measurements", static_cast<double>(measurements), "count");
    out.add("autotune.resolve_warm_us", median(warm_us), "us");
    out.add("autotune.hit_rate",
            st.lookups > 0 ? static_cast<double>(st.hits) / static_cast<double>(st.lookups)
                           : 0.0,
            "1");
    std::remove(path.c_str());
  }

  // ---- direct dispatch of a tiny job
  {
    Grid2D<float> ta(64, 32);
    Grid2D<float> tb(64, 32);
    seeded_fill(ta, derive_seed(ctx.seed, 103));
    std::vector<double> us;
    for (int i = 0; i < 501; ++i) {
      Span s(tr, "job.run_tiny");
      core::run_job(arch, core::SimJob::stencil2d(ta, tb, star1, 1));
      us.push_back(s.close() * 1e3);
    }
    out.add("job.run_job_tiny_us", median(us), "us");
  }

  out.add("trace.overhead_frac", w.trace_overhead(), "1");

  // ---- server and client: from the workload itself when it serves, else
  // from a short run of the serving workload.
  if (!w.own_layer_metrics(out)) {
    Span s(tr, "probe.serve");
    std::unique_ptr<Workload> serve = make_workload("serve_openloop");
    Context sctx = ctx;
    sctx.seconds = 1.0;
    (void)serve->setup(sctx);
    serve->run(sctx, false);
    serve->check(sctx, out);
    (void)serve->own_layer_metrics(out);
  }
}

}  // namespace perfbench
