#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/autotune.hpp"
#include "core/config.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

int Trace::open(const char* name, std::uint64_t job) {
  if (!enabled_) return -1;
  SpanRec r;
  r.name = name;
  r.begin_ns = ns(Clock::now());
  r.parent = current();
  r.job = job;
  spans_.push_back(std::move(r));
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Trace::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns = ns(Clock::now());
  // Spans close in LIFO order (RAII on one thread).
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void Trace::add(const char* name, Clock::time_point b, Clock::time_point e, int parent,
                std::uint64_t job, int track) {
  SpanRec r;
  r.name = name;
  r.begin_ns = ns(b);
  r.end_ns = ns(e);
  r.parent = parent;
  r.job = job;
  r.track = track;
  spans_.push_back(std::move(r));
}

std::vector<double> Trace::self_ms() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const SpanRec& s : spans_) {
    if (s.track == 0 && s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.track != 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0;
    std::int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] = static_cast<double>(s.end_ns - s.begin_ns - covered) * 1e-6;
  }
  return self;
}

bool Trace::write_json(const std::string& path, const std::string& host_json,
                       double wall_ms) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_ms();
  std::map<std::string, double> layer_self;
  double self_sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].track != 0) continue;
    const std::string n = spans_[i].name;
    layer_self[n.substr(0, n.find('.'))] += self[i];
    self_sum += self[i];
  }
  std::fprintf(f, "{\n\"host\": %s,\n\"wall_ms\": %.6f,\n\"self_sum_ms\": %.6f,\n",
               host_json.c_str(), wall_ms, self_sum);
  std::fprintf(f, "\"layer_self_ms\": {");
  bool first = true;
  for (const auto& [layer, ms] : layer_self) {
    std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ", layer.c_str(), ms);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"begin_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"job\": %llu, \"track\": %d, \"self_ms\": %.6f}%s\n",
                 i, s.name, static_cast<long long>(s.begin_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.job), s.track, self[i],
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n}\n");
  return std::fclose(f) == 0;
}

void seeded_fill(float* data, std::int64_t rows, std::int64_t width, std::uint64_t seed) {
  ssam::parallel_for(rows, [&](std::int64_t y) {
    ssam::SplitMix64 rng(derive_seed(seed, static_cast<std::uint64_t>(y)));
    float* row = data + y * width;
    for (std::int64_t x = 0; x < width; ++x) {
      row[x] = static_cast<float>(rng.next_in(-1.0, 1.0));
    }
  });
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  ssam::SplitMix64 rng(seed ^ (0x9E3779B97F4A7C15ull * (stream + 1)));
  return rng.next_u64();
}

HostInfo probe_host() {
  HostInfo h;
  h.fingerprint = ssam::core::AutoTuner::host_fingerprint();
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.threads = ssam::ThreadPool::global().size();
  h.simd = ssam::core::config().simd_backend;
  // glibc answers from CPUID on x86; report 0 (unknown) rather than guess.
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.llc_bytes = llc > 0 ? llc : 0;
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
