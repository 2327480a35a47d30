// SSAM 1D convolution — the paper's first motivating example (Section 3.5).
//
// J-tuple: X = 32 consecutive array elements (one per lane), O = (x, +) with
// ctrl == 1, D = the M-1 right-shift chain of Figure 2c, Y = the 32-M+1
// valid lanes. Consecutive warps overlap by M-1 lanes (1D overlapped
// blocking). Coefficients travel as kernel arguments.
#pragma once

#include <span>

#include "core/kernel_common.hpp"

namespace ssam::core {

[[nodiscard]] inline int conv1d_ssam_regs() { return 16; }

template <typename T>
KernelStats conv1d_ssam(const sim::ArchSpec& arch, std::span<const T> in,
                        std::span<const T> filter, std::span<T> out,
                        ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  SSAM_REQUIRE(in.size() == out.size(), "conv1d extent mismatch");
  const int m = static_cast<int>(filter.size());
  SSAM_REQUIRE(m >= 1 && m <= sim::kWarpSize - 1, "filter must fit one warp");
  const Index n = static_cast<Index>(in.size());
  const int cx = (m - 1) / 2;
  const int valid = sim::kWarpSize - m + 1;
  constexpr int kBlockThreads = 128;
  const int warps = kBlockThreads / sim::kWarpSize;

  sim::LaunchConfig cfg;
  cfg.grid = Dim3{static_cast<int>(ceil_div(n, static_cast<long long>(warps) * valid)), 1, 1};
  cfg.block_threads = kBlockThreads;
  cfg.regs_per_thread = conv1d_ssam_regs();

  // D: the M-tap filter as a one-row tap schedule, one column per tap.
  sim::TapSchedule<T> sched;
  sched.add_pass();
  for (int fm = 0; fm < m; ++fm) {
    sched.add_column();
    sched.add_tap(0, filter[static_cast<std::size_t>(fm)]);
  }

  const T* src = in.data();
  T* dst = out.data();
  auto body = [&, n, m, cx, valid, warps, src, dst](auto& blk) {
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      const long long warp_linear = static_cast<long long>(blk.id().x) * warps + w;
      const Index base = warp_linear * valid - cx;  // lane 0's input element
      if (base + cx >= n) continue;
      // X: one cached element per lane (register cache of depth 1).
      const Reg<Index> idx = wc.clamp(wc.template iota<Index>(base, 1), Index{0}, n - 1);
      const Reg<T> x = wc.load_global(src, idx);
      // O + D: M MADs with a shift between consecutive filter taps.
      Reg<T> sum;
      wc.systolic_sweep(&x, 1, sched, &sum);
      // Y: lanes >= M-1 hold outputs at out_x = base + lane - (M-1) + cx.
      const Reg<Index> out_x =
          wc.affine(wc.template iota<Index>(0, 1), 1, base - (m - 1) + cx);
      Pred ok = wc.pred_and(wc.cmp_ge(wc.lane_id(), m - 1), wc.cmp_lt(out_x, n));
      wc.store_global(dst, out_x, sum, &ok);
    }
  };

  return sim::launch(arch, cfg, body, mode, sample);
}

}  // namespace ssam::core
