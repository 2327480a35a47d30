// Shared utilities for the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the simulated kernels in timing mode on the paper's domain sizes, prints
// the same rows/series the paper reports, and where the paper states
// explicit numbers or shape criteria, prints paper-vs-measured columns.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/grid.hpp"
#include "common/table.hpp"
#include "core/kernel_common.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/timing.hpp"

namespace ssam::bench {

/// Command line of a bench that writes one JSON result: `[--help]
/// [out.json]`. Returns the output path (`default_out` when none is given).
/// `--help` prints the usage and exits 0; an unknown flag or a second path
/// prints it to stderr and exits 2, so a typo never runs the whole bench
/// and writes a file named after the typo.
[[nodiscard]] inline std::string parse_json_out_arg(int argc, char** argv,
                                                    const char* default_out) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  auto usage = [&](std::FILE* f) {
    std::fprintf(f, "usage: %s [--help] [out.json]\n  out.json  result file (default: %s)\n",
                 prog, default_out);
  };
  std::string out = default_out;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (arg.starts_with("-") || have_out) {
      std::fprintf(stderr, "%s: %s '%s'\n", prog,
                   arg.starts_with("-") ? "unknown flag" : "unexpected argument", arg.c_str());
      usage(stderr);
      std::exit(2);
    }
    out = arg;
    have_out = true;
  }
  return out;
}

/// Timing-mode sample: 96 blocks in 4 contiguous runs (see launch.hpp).
[[nodiscard]] inline sim::SampleSpec default_sample() { return sim::SampleSpec{96, 4}; }

/// Turns a KernelStats into a runtime estimate and GCells/s for a domain.
struct Measurement {
  double ms = 0.0;
  double gcells = 0.0;
  std::string bound;
};

[[nodiscard]] inline Measurement measure(const sim::ArchSpec& arch,
                                         const sim::KernelStats& stats, double cells,
                                         int fused_steps = 1) {
  const sim::RuntimeEstimate est = sim::estimate_runtime(arch, stats);
  Measurement m;
  m.ms = est.total_ms;
  m.gcells = cells * fused_steps / (est.total_ms * 1e-3) / 1e9;
  m.bound = est.bound;
  return m;
}

/// Shape-criterion bookkeeping: the bench prints PASS/FAIL lines mirroring
/// the qualitative claims of the paper (who wins, by roughly what factor).
class ShapeChecks {
 public:
  void check(const std::string& name, bool ok) {
    results_.push_back({name, ok});
    if (!ok) ++failures_;
  }

  void print() const {
    std::cout << "\nShape criteria (paper claims):\n";
    for (const auto& [name, ok] : results_) {
      std::cout << "  [" << (ok ? "PASS" : "FAIL") << "] " << name << '\n';
    }
  }

  [[nodiscard]] int failures() const { return failures_; }

 private:
  std::vector<std::pair<std::string, bool>> results_;
  int failures_ = 0;
};

inline void print_simulation_note() {
  std::cout << "(simulated GPUs: timings are estimates from the cycle-level SIMT\n"
               " simulator described in DESIGN.md, parameterized by the paper's\n"
               " Table 2 latencies; shapes, not absolute ms, are the target)\n";
}

}  // namespace ssam::bench
