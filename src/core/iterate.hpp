// Iterative stencil driver (double-buffered time stepping).
//
// The per-step state (validated setup, column-pass schedule, kernel bodies)
// is hoisted out of the step loop: one ping body (a -> b) and one pong body
// (b -> a) are built per call and reused for every step, so a long run —
// or a benchmark calling the driver repeatedly — performs no per-step plan
// copies or allocator traffic. The async variants share one heap-allocated
// body per direction across all enqueued ops for the same reason.
//
// For runs long enough to amortize tile setup, the persistent engine
// (core/iterate_persistent.hpp) replaces the per-step relaunch entirely:
// tiles stay resident on their workers and exchange halos directly.
#pragma once

#include <memory>

#include "core/stencil2d.hpp"
#include "core/stencil3d.hpp"

namespace ssam::core {

/// Result of an iterative run: per-step stats (uniform across steps for the
/// non-temporally-blocked kernels) and the step count.
struct IterationStats {
  KernelStats per_step;
  int steps = 0;
};

/// Runs `steps` SSAM stencil sweeps A->B, swapping buffers; the final state
/// ends in `a`. In timing mode only the first step is timed (steps are
/// identical for out-of-place sweeps).
template <typename T>
IterationStats iterate_stencil2d(const sim::ArchSpec& arch, Grid2D<T>& a, Grid2D<T>& b,
                                 const StencilShape<T>& shape, int steps,
                                 const StencilOptions& opt = {},
                                 ExecMode mode = ExecMode::kFunctional,
                                 SampleSpec sample = {}) {
  IterationStats r;
  r.steps = steps;
  const SystolicPlan<T> plan = build_plan(shape.taps);
  if (mode == ExecMode::kTiming) {
    r.per_step = stencil2d_ssam<T>(arch, a.cview(), plan, b.view(), opt, mode, sample);
    return r;
  }
  const detail::Stencil2dSetup s = detail::stencil2d_setup(a.cview(), plan, opt);
  auto ping = detail::make_stencil2d_body<T>(s, a.cview(), plan.passes.front(), b.view());
  auto pong = detail::make_stencil2d_body<T>(s, b.cview(), plan.passes.front(), a.view());
  for (int step = 0; step < steps; ++step) {
    r.per_step = (step % 2 == 0) ? sim::launch(arch, s.cfg, ping, mode, sample)
                                 : sim::launch(arch, s.cfg, pong, mode, sample);
  }
  if (steps % 2 == 1) std::swap(a, b);  // final state ends in `a`, as before
  return r;
}

template <typename T>
IterationStats iterate_stencil3d(const sim::ArchSpec& arch, Grid3D<T>& a, Grid3D<T>& b,
                                 const StencilShape<T>& shape, int steps,
                                 const Stencil3DOptions& opt = {},
                                 ExecMode mode = ExecMode::kFunctional,
                                 SampleSpec sample = {}) {
  IterationStats r;
  r.steps = steps;
  const SystolicPlan<T> plan = build_plan(shape.taps);
  if (mode == ExecMode::kTiming) {
    r.per_step = stencil3d_ssam<T>(arch, a.cview(), plan, b.view(), opt, mode, sample);
    return r;
  }
  detail::Stencil3dSetup<T> s = detail::stencil3d_setup(arch, a.cview(), plan, opt);
  const sim::LaunchConfig cfg = s.cfg;
  auto ping = detail::make_stencil3d_body<T>(s, a.cview(), b.view());
  auto pong = detail::make_stencil3d_body<T>(std::move(s), b.cview(), a.view());
  for (int step = 0; step < steps; ++step) {
    r.per_step = (step % 2 == 0) ? sim::launch(arch, cfg, ping, mode, sample)
                                 : sim::launch(arch, cfg, pong, mode, sample);
  }
  if (steps % 2 == 1) std::swap(a, b);
  return r;
}

namespace detail {
/// Wraps a kernel body behind a shared_ptr so per-op stream copies share
/// one heap-allocated body (and its pass schedule) instead of cloning the
/// tap vectors for every enqueued step.
template <typename Body>
[[nodiscard]] auto share_body(Body&& body) {
  return [sp = std::make_shared<Body>(std::forward<Body>(body))](auto& blk) {
    (*sp)(blk);
  };
}
}  // namespace detail

/// Enqueues all `steps` functional sweeps on `stream` without any host-side
/// join between steps (the stream's FIFO order replaces the per-step
/// fork/join of the synchronous driver). For odd step counts `a` and `b`
/// are swapped at enqueue time — their heap buffers exchange roles before
/// this returns — so after the returned event signals the final state is in
/// `a`, exactly as with the synchronous driver, and ops enqueued afterwards
/// on `a` chain correctly in FIFO order. Both grids must stay alive until
/// synchronization.
template <typename T>
sim::Event iterate_stencil2d_async(sim::Stream& stream, const sim::ArchSpec& arch,
                                   Grid2D<T>& a, Grid2D<T>& b, const StencilShape<T>& shape,
                                   int steps, const StencilOptions& opt = {}) {
  const SystolicPlan<T> plan = build_plan(shape.taps);
  const detail::Stencil2dSetup s = detail::stencil2d_setup(a.cview(), plan, opt);
  auto ping = detail::share_body(
      detail::make_stencil2d_body<T>(s, a.cview(), plan.passes.front(), b.view()));
  auto pong = detail::share_body(
      detail::make_stencil2d_body<T>(s, b.cview(), plan.passes.front(), a.view()));
  sim::Event last;
  for (int step = 0; step < steps; ++step) {
    last = (step % 2 == 0) ? stream.launch(arch, s.cfg, ping)
                           : stream.launch(arch, s.cfg, pong);
  }
  // The bodies captured the raw buffers, so the enqueue-time swap only
  // renames the grids for the caller; the last enqueued sweep writes the
  // buffer `a` now owns.
  if (steps % 2 == 1) std::swap(a, b);
  return last;
}

template <typename T>
sim::Event iterate_stencil3d_async(sim::Stream& stream, const sim::ArchSpec& arch,
                                   Grid3D<T>& a, Grid3D<T>& b, const StencilShape<T>& shape,
                                   int steps, const Stencil3DOptions& opt = {}) {
  const SystolicPlan<T> plan = build_plan(shape.taps);
  detail::Stencil3dSetup<T> s = detail::stencil3d_setup(arch, a.cview(), plan, opt);
  const sim::LaunchConfig cfg = s.cfg;
  auto ping = detail::share_body(detail::make_stencil3d_body<T>(s, a.cview(), b.view()));
  auto pong =
      detail::share_body(detail::make_stencil3d_body<T>(std::move(s), b.cview(), a.view()));
  sim::Event last;
  for (int step = 0; step < steps; ++step) {
    last = (step % 2 == 0) ? stream.launch(arch, cfg, ping) : stream.launch(arch, cfg, pong);
  }
  if (steps % 2 == 1) std::swap(a, b);  // enqueue-time rename, as in 2D
  return last;
}

}  // namespace ssam::core
