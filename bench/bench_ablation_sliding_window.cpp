// Ablation: the sliding-window length P (Section 4.2, footnote 2).
//
// P trades register pressure against data reuse and ILP: C = P + N - 1
// registers per thread buy P outputs, so the halo ratio HRrc falls with P
// while occupancy eventually drops. The paper fixes P=4 for Fig. 4; this
// ablation shows why that neighborhood is the sweet spot on the GPU. The
// host column times the same launch in functional mode (median of 3), where
// no occupancy limit applies: that is the curve the host engines' choice of
// P (resolve_p in rcache/blocking.hpp) follows.
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/conv2d.hpp"
#include "perfmodel/latency_model.hpp"

int main() {
  using namespace ssam;
  bench::print_simulation_note();
  print_banner("Ablation: sliding-window length P (SSAM conv2d, 9x9, FP32)");
  bench::ShapeChecks checks;

  Grid2D<float> in(4096, 4096), out(4096, 4096);
  std::vector<float> w(81, 0.01f);
  constexpr std::array<int, 6> kWindows = {1, 2, 4, 8, 16, 32};

  // Functional host time per P; reps interleave the windows so drift hits
  // every P alike.
  std::array<std::array<double, 3>, kWindows.size()> host_ms{};
  for (std::size_t rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < kWindows.size(); ++i) {
      core::ConvOptions opt;
      opt.p = kWindows[i];
      const auto t0 = std::chrono::steady_clock::now();
      (void)core::conv2d_ssam<float>(sim::tesla_v100(), in.cview(), w, 9, 9, out.view(), opt);
      const auto t1 = std::chrono::steady_clock::now();
      host_ms[i][rep] = std::chrono::duration<double, std::milli>(t1 - t0).count();
    }
  }
  for (auto& r : host_ms) std::sort(r.begin(), r.end());

  for (const sim::ArchSpec* arch : {&sim::tesla_p100(), &sim::tesla_v100()}) {
    ConsoleTable t({"P", "C=P+N-1", "HRrc", "regs/thread", "occupancy", "runtime ms",
                    "host ms"});
    double best_ms = 1e30;
    int best_p = 0;
    double p1_ms = 0;
    for (std::size_t i = 0; i < kWindows.size(); ++i) {
      const int p = kWindows[i];
      core::ConvOptions opt;
      opt.p = p;
      auto stats = core::conv2d_ssam<float>(*arch, in.cview(), w, 9, 9, out.view(), opt,
                                            sim::ExecMode::kTiming, {32, 4});
      const auto est = sim::estimate_runtime(*arch, stats);
      t.add_row({std::to_string(p), std::to_string(p + 8),
                 ConsoleTable::num(perf::halo_ratio_rc(9, 9, p), 3),
                 std::to_string(stats.cfg.regs_per_thread),
                 ConsoleTable::num(est.occupancy.fraction, 2),
                 ConsoleTable::num(est.total_ms, 2), ConsoleTable::num(host_ms[i][1], 1)});
      if (est.total_ms < best_ms) {
        best_ms = est.total_ms;
        best_p = p;
      }
      if (p == 1) p1_ms = est.total_ms;
    }
    std::cout << "\n" << arch->name << ":\n" << t.str();
    std::cout << "best P = " << best_p << " (paper uses P=4)\n";
    checks.check(arch->name + ": some P > 1 beats P = 1 (sliding window pays)",
                 best_ms < p1_ms);
    checks.check(arch->name + ": best P in the paper's neighborhood [2, 16]",
                 best_p >= 2 && best_p <= 16);
  }
  checks.print();
  return checks.failures() == 0 ? 0 : 1;
}
