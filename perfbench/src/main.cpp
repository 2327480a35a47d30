// The repository benchmark: one workload per run, end-to-end metrics from
// an untraced run, per-layer metrics from a traced one. See README.md.
//
//   ssam_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//
// Prints a host record, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check fails and 2 on a usage error.
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "gpusim/arch.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// setup_s is the median of at least kMinSetups set-ups; cheap set-ups are
// repeated until kSetupBudgetS is spent (at most kMaxSetups), because a
// tens-of-milliseconds set-up is dominated by scheduling noise.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;

/// Ends the process, without a result, when a run outlives `limit_s`: a job
/// that never completes must fail the run instead of hanging it.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lock(m_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s), [&] { return done_; })) {
            std::fprintf(stderr, "error: run exceeded %g s, aborting\n", limit_s);
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(m_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ssam_perfbench --workload "
               "{sweep_dram|iterate_resident|serve_openloop} --seed N [--seconds S] "
               "[--trace 0|1]\n",
               msg.c_str());
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t& v) {
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, v);
  return !s.empty() && r.ec == std::errc{} && r.ptr == end;
}

bool parse_seconds(const std::string& s, double& v) {
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, v);
  return !s.empty() && r.ec == std::errc{} && r.ptr == end && std::isfinite(v) && v > 0.0 &&
         v <= 3600.0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  std::vector<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace") {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      value = argv[++i];
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
    for (const std::string& f : seen) {
      if (f == flag) usage_error("duplicate " + flag);
    }
    seen.push_back(flag);
    if (flag == "--workload") {
      if (make_workload(value) == nullptr) usage_error("unknown workload '" + value + "'");
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, a.seed)) usage_error("--seed needs an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_seconds(value, a.seconds)) usage_error("--seconds needs a number in (0, 3600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace needs 0 or 1");
      a.trace = value == "1";
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  return a;
}

std::string host_json(const HostInfo& h, const Args& a, double ratio) {
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"fingerprint\": \"%s\", \"nproc\": %d, \"ssam_threads\": %d, "
                "\"simd\": \"%s\", \"llc_bytes\": %lld, \"dram_array_to_llc\": %.3f, "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
                h.fingerprint.c_str(), h.nproc, h.threads, h.simd.c_str(),
                static_cast<long long>(h.llc_bytes), ratio, a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  return buf;
}

std::string dirname_of(const char* path) {
  const std::string p = path;
  const auto slash = p.rfind('/');
  return slash == std::string::npos ? "." : p.substr(0, slash);
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  const Args args = parse_args(argc, argv);
  const Watchdog watchdog(120.0 + 3.0 * args.seconds);
  try {
    Trace trace(start);
    Context ctx{ssam::sim::tesla_v100(), trace, args.seed, args.seconds, dirname_of(argv[0])};
    const HostInfo host = probe_host();
    if (host.threads > host.nproc) {
      usage_error("SSAM_THREADS (" + std::to_string(host.threads) + ") exceeds nproc (" +
                  std::to_string(host.nproc) + ")");
    }
    const double ratio = dram_array_to_llc(host);
    const std::string hj = host_json(host, args, ratio);
    std::printf("host: %s\n", hj.c_str());
    if (ratio < 4.0) {
      std::printf("warning: sweep_dram arrays are %.2fx the LLC (%lld bytes), below the 4x "
                  "that makes the workload DRAM-bound\n",
                  ratio, static_cast<long long>(host.llc_bytes));
    }
    std::fflush(stdout);

    std::unique_ptr<Workload> w = make_workload(args.workload);
    RunResult out;
    if (!args.trace) {
      std::vector<double> setups;
      double spent = 0.0;
      while (static_cast<int>(setups.size()) < kMinSetups ||
             (spent < kSetupBudgetS && static_cast<int>(setups.size()) < kMaxSetups)) {
        setups.push_back(w->setup(ctx));
        spent += setups.back();
      }
      w->run(ctx, false);
      w->check(ctx, out);
      out.add("setup_s", median(setups), "s");
      w->end_to_end(out);
      out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    } else {
      trace.set_enabled(true);
      {
        Span root(trace, "bench.run");
        (void)w->setup(ctx);
        w->run(ctx, true);
        w->check(ctx, out);
        add_layer_metrics(ctx, *w, out);
      }
      const double bad = static_cast<double>(out.failed + out.mismatches);
      const double failed_frac =
          out.attempted > 0 ? bad / static_cast<double>(out.attempted) : 1.0;
      out.add("failed_frac", failed_frac, "1");
      const std::string path = ctx.scratch_dir + "/trace-" + args.workload + ".json";
      const double wall_ms = ms_between(start, Clock::now());
      if (!trace.write_json(path, hj, wall_ms)) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("trace: %s (%zu spans)\n", path.c_str(), trace.spans().size());
    }
    w->teardown();

    std::string line = "{\"correct\": ";
    line += out.correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed + out.mismatches);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const Metric& m = out.metrics[i];
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      line += buf;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
