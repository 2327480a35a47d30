// The benchmark's three workloads and the per-layer probes of the traced
// run. Why each workload exists, and which layer metric should move which
// end-to-end metric, is written down in perfbench/README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/grid.hpp"
#include "gpusim/arch.hpp"
#include "harness.hpp"

namespace perfbench {

struct Context {
  const ssam::sim::ArchSpec& arch;
  Trace& trace;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string scratch_dir;  ///< inside the checkout: the tuner's cache file
};

/// One workload: set up (allocate, fill, cold run, warm-up), run the timed
/// phase, then check outputs outside it. All load comes from the calling
/// thread.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds fresh state; a later setup() replaces it. Returns seconds.
  virtual double setup(Context& ctx) = 0;
  /// Releases the state of the last setup().
  virtual void teardown() = 0;
  /// The timed phase. With `alternate_trace`, tracing is switched on for
  /// every other request so the traced and untraced halves of one run give
  /// the tracing overhead.
  virtual void run(Context& ctx, bool alternate_trace) = 0;
  /// Checks outputs (outside the timed phase) and books every job of the
  /// run into `out`'s ledger.
  virtual void check(Context& ctx, RunResult& out) = 0;
  /// End-to-end metrics of the timed phase (setup_s and peak_rss_mib are
  /// added by the caller).
  virtual void end_to_end(RunResult& out) = 0;
  /// Per-layer metrics only this workload measures; returns false when it
  /// has none (the caller then runs a short serving probe for them).
  virtual bool own_layer_metrics(RunResult& out) = 0;
  /// Relative slowdown of traced against untraced requests of run().
  [[nodiscard]] virtual double trace_overhead() const = 0;
  /// The first persistent run of the last setup(), in milliseconds.
  [[nodiscard]] virtual double cold_run_ms() const = 0;
  /// The workload's representative 2D grid pair, for the kernel and memory
  /// probes (they may overwrite both after check()).
  virtual ssam::Grid2D<float>& probe_in() = 0;
  virtual ssam::Grid2D<float>& probe_out() = 0;
};

/// The named workload, or null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// sweep_dram's array size against the LLC.
[[nodiscard]] double dram_array_to_llc(const HostInfo& host);

/// Runs the layer probes and adds every per-layer metric not supplied by
/// the workload itself.
void add_layer_metrics(Context& ctx, Workload& w, RunResult& out);

}  // namespace perfbench
