// Shared machinery of the repository benchmark: clocks and order
// statistics, the in-memory span recorder behind the traced run, the named
// metric list printed as the result line, seeded fills and the host record.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/grid.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// ---------------------------------------------------------------- tracing

/// One recorded span. `track` 0 is the client thread: its spans nest
/// strictly (RAII), so their self times add up to the root span's duration.
/// Track 1 holds spans derived from a served job's JobResult (queue and
/// execution intervals on the server's threads); those overlap each other
/// and are reported per job, not reconciled against wall time.
struct SpanRec {
  const char* name = "";  ///< "<layer>.<operation>", a string literal
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = -1;
  int parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t job = 0;  ///< job id (0: not a job)
  int track = 0;
};

/// Spans are kept in memory and written out once at the end of the run.
/// Only the client thread records spans, so the recorder takes no lock.
/// When disabled, opening a span costs one branch and no clock read.
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index or -1.
  int open(const char* name, std::uint64_t job = 0);
  void close(int idx);
  /// Records a finished span on `track` (derived spans; no nesting check).
  /// Unlike open(), records regardless of enabled(): the caller decides.
  void add(const char* name, Clock::time_point b, Clock::time_point e, int parent,
           std::uint64_t job, int track);
  [[nodiscard]] int current() const { return stack_.empty() ? -1 : stack_.back(); }

  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  /// Self time of every track-0 span: its duration minus the union of its
  /// children's intervals.
  [[nodiscard]] std::vector<double> self_ms() const;

  /// Writes spans plus the per-layer self-time summary as JSON.
  bool write_json(const std::string& path, const std::string& host_json,
                  double wall_ms) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span on track 0. `close()` ends it early and returns its duration
/// in milliseconds; the duration is measured whether or not tracing is on,
/// so probes time themselves through the same object that records them.
class Span {
 public:
  Span(Trace& t, const char* name, std::uint64_t job = 0)
      : trace_(t), idx_(t.open(name, job)), begin_(Clock::now()) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double close() {
    if (!closed_) {
      end_ = Clock::now();
      closed_ = true;
      if (idx_ >= 0) trace_.close(idx_);
    }
    return ms_between(begin_, end_);
  }

 private:
  Trace& trace_;
  int idx_;
  Clock::time_point begin_;
  Clock::time_point end_{};
  bool closed_ = false;
};

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: named metrics plus the job ledger the
/// result line's attempted/failed fields are built from.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< rejected, failed or cancelled jobs
  std::uint64_t mismatches = 0;  ///< jobs whose output check failed

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] bool correct() const { return failed == 0 && mismatches == 0; }
};

// ---------------------------------------------------------------- inputs

/// Seeded uniform fill in [-1, 1), parallel over rows of `width` elements.
/// Row y draws from its own SplitMix64 stream, so the contents depend only
/// on the seed, never on the worker count.
void seeded_fill(float* data, std::int64_t rows, std::int64_t width, std::uint64_t seed);

inline void seeded_fill(ssam::Grid2D<float>& g, std::uint64_t seed) {
  seeded_fill(g.data(), g.height(), g.width(), seed);
}
inline void seeded_fill(ssam::Grid3D<float>& g, std::uint64_t seed) {
  seeded_fill(g.data(), g.ny() * g.nz(), g.nx(), seed);
}

/// Mixes a workload-local stream id into the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------- host

struct HostInfo {
  std::string fingerprint;  ///< AutoTuner::host_fingerprint()
  int nproc = 0;            ///< CPUs this process may run on
  int threads = 0;          ///< resolved SSAM_THREADS (global pool width)
  std::string simd;         ///< compiled SIMD lane backend
  std::int64_t llc_bytes = 0;  ///< last-level cache size read at run time
};

[[nodiscard]] HostInfo probe_host();
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
