// Common utilities: grids/views/border policy, the grid storage contract
// (extent checks, zeroed allocation, bit-exact fills, deep copies), RNG
// determinism, stats, tables, paper-data registry consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/grid.hpp"
#include "core/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/stencil_suite.hpp"
#include "paperdata/paper_values.hpp"

namespace {

using namespace ssam;

TEST(Grid2D, RowMajorLayoutAndViews) {
  Grid2D<int> g(4, 3);
  int v = 0;
  for (Index y = 0; y < 3; ++y) {
    for (Index x = 0; x < 4; ++x) g.at(x, y) = v++;
  }
  EXPECT_EQ(g.data()[5], g.at(1, 1));
  const GridView2D<const int> view = g.cview();
  EXPECT_EQ(view.at(3, 2), 11);
  EXPECT_EQ(view.pitch(), 4);
}

TEST(Grid2D, BorderPolicies) {
  Grid2D<int> g(3, 2);
  g.at(0, 0) = 7;
  g.at(2, 1) = 9;
  const auto view = g.cview();
  EXPECT_EQ(view.read(-5, -5, Border::kClamp), 7);
  EXPECT_EQ(view.read(10, 10, Border::kClamp), 9);
  EXPECT_EQ(view.read(-1, 0, Border::kZero), 0);
  EXPECT_EQ(view.read(0, 0, Border::kZero), 7);
}

TEST(Grid3D, SliceSharesStorage) {
  Grid3D<float> g(4, 3, 2);
  g.at(1, 2, 1) = 5.0f;
  const GridView2D<float> slice = g.view().slice(1);
  EXPECT_EQ(slice.at(1, 2), 5.0f);
  slice.at(0, 0) = 3.0f;
  EXPECT_EQ(g.at(0, 0, 1), 3.0f);
}

TEST(Grid, RejectsEmptyExtents) {
  EXPECT_THROW(Grid2D<int>(0, 5), PreconditionError);
  EXPECT_THROW((Grid3D<int>(4, 0, 4)), PreconditionError);
}

/// The message of the PreconditionError `make` throws; fails the test when
/// it throws nothing or something else.
template <typename Make>
std::string precondition_message(Make&& make) {
  try {
    make();
  } catch (const PreconditionError& e) {
    return e.what();
  } catch (...) {
    ADD_FAILURE() << "threw something other than PreconditionError";
    return {};
  }
  ADD_FAILURE() << "did not throw";
  return {};
}

TEST(Grid, RejectsNegativeExtentsBeforeAllocating) {
  EXPECT_NE(precondition_message([] { Grid2D<float>(-1, 5); }).find("-1 x 5"),
            std::string::npos);
  EXPECT_NE(precondition_message([] { Grid3D<float>(4, -2, 3); }).find("4 x -2 x 3"),
            std::string::npos);
}

TEST(Grid, RejectsElementAndByteCountsThatOverflow) {
  // 2^70 cells: the element count overflows Index (it used to wrap to 0).
  const std::string cells =
      precondition_message([] { Grid2D<float>(Index{1} << 40, Index{1} << 30); });
  EXPECT_NE(cells.find("1099511627776 x 1073741824"), std::string::npos) << cells;
  EXPECT_NE(cells.find("element count"), std::string::npos) << cells;
  EXPECT_NE(precondition_message([] {
              Grid3D<float>(Index{1} << 21, Index{1} << 21, Index{1} << 22);
            }).find("element count"),
            std::string::npos);
  // 2^62 cells fit Index, but 2^64 bytes fit neither Index nor size_t.
  EXPECT_NE(precondition_message([] {
              Grid2D<float>(Index{1} << 31, Index{1} << 31);
            }).find("byte count"),
            std::string::npos);
  EXPECT_NE(precondition_message([] {
              Grid3D<double>(Index{1} << 20, Index{1} << 20, Index{1} << 21);
            }).find("byte count"),
            std::string::npos);
}

/// True when the `bytes` bytes at `p` are all zero.
bool zero_bytes(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  return std::all_of(b, b + bytes, [](unsigned char c) { return c == 0; });
}

TEST(GridStorage, FreshGridsReadAllZeroBits) {
  const Grid2D<float> small2(7, 5);
  const Grid3D<double> small3(3, 4, 5);
  EXPECT_TRUE(zero_bytes(small2.data(), 7 * 5 * sizeof(float)));
  EXPECT_TRUE(zero_bytes(small3.data(), 3 * 4 * 5 * sizeof(double)));
  // 64 MiB each: far above the allocator's mmap threshold. A block that
  // was just freed dirty must come back zeroed too.
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Grid2D<float> big2(4096, 4096);
    EXPECT_TRUE(zero_bytes(big2.data(), kBytes));
    big2.fill(1.0f);
    Grid3D<float> big3(256, 256, 256);
    EXPECT_TRUE(zero_bytes(big3.data(), kBytes));
    big3.fill(-3.0f);
  }
}

TEST(GridStorage, FillValuesAreKeptBitForBit) {
  const std::uint32_t kNaN = 0x7fc0'1234u;  // a quiet NaN with a payload
  float nan = 0.0f;
  std::memcpy(&nan, &kNaN, sizeof(float));
  for (const float v : {-0.0f, nan}) {
    std::uint32_t want = 0;
    std::memcpy(&want, &v, sizeof(float));
    const Grid2D<float> g2(9, 4, v);
    const Grid3D<float> g3(3, 5, 2, v);
    for (Index i = 0; i < g2.size(); ++i) {
      std::uint32_t got = 0;
      std::memcpy(&got, g2.data() + i, sizeof(float));
      ASSERT_EQ(got, want) << "2D cell " << i;
    }
    for (Index i = 0; i < g3.size(); ++i) {
      std::uint32_t got = 0;
      std::memcpy(&got, g3.data() + i, sizeof(float));
      ASSERT_EQ(got, want) << "3D cell " << i;
    }
  }
}

TEST(GridStorage, CopiesAreDeepAndMovedFromGridsStayDestructible) {
  Grid2D<float> a(6, 4);
  fill_random(a, 3);
  Grid2D<float> b = a;
  ASSERT_NE(b.data(), a.data());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), 24 * sizeof(float)));
  b.at(2, 1) = 42.0f;
  EXPECT_NE(a.at(2, 1), 42.0f);
  Grid2D<float> c(2, 2);
  c = a;
  EXPECT_EQ(c.width(), 6);
  ASSERT_NE(c.data(), a.data());
  EXPECT_EQ(0, std::memcmp(a.data(), c.data(), 24 * sizeof(float)));

  Grid3D<float> p(3, 2, 4);
  fill_random(p, 4);
  Grid3D<float> q = p;
  ASSERT_NE(q.data(), p.data());
  EXPECT_EQ(0, std::memcmp(p.data(), q.data(), 24 * sizeof(float)));
  q.at(1, 1, 3) = 7.0f;
  EXPECT_NE(p.at(1, 1, 3), 7.0f);

  // Moved-from grids own nothing, can be assigned again, and are destroyed
  // at scope exit without a double free.
  const Grid2D<float> moved = std::move(a);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(0, std::memcmp(moved.data(), c.data(), 24 * sizeof(float)));
  a = Grid2D<float>(3, 3, 1.0f);
  EXPECT_EQ(a.at(2, 2), 1.0f);
  Grid3D<float> r(std::move(p));
  EXPECT_EQ(p.data(), nullptr);
  p = std::move(r);
  EXPECT_EQ(r.data(), nullptr);
  EXPECT_EQ(0, std::memcmp(p.data(), q.data(), 4 * sizeof(float)));
}

TEST(Rng, DeterministicAcrossRuns) {
  std::vector<double> a(100), b(100);
  fill_random(a, 123);
  fill_random(b, 123);
  EXPECT_EQ(a, b);
  fill_random(b, 124);
  EXPECT_NE(a, b);
}

TEST(Rng, RangeRespected) {
  std::vector<float> v(10000);
  fill_random(v, 9, 2.0, 3.0);
  for (float x : v) {
    ASSERT_GE(x, 2.0f);
    ASSERT_LT(x, 3.0f);
  }
}

TEST(Stats, DiffMetrics) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {1.0f, 2.5f, 3.0f};
  EXPECT_FLOAT_EQ(max_abs_diff<float>(a, b), 0.5f);
  EXPECT_NEAR(normalized_max_diff<float>(a, b), 0.5 / 3.0, 1e-7);
  EXPECT_THROW((void)max_abs_diff<float>(a, std::vector<float>{1.0f}), PreconditionError);
}

TEST(Stats, RunningStats) {
  RunningStats s;
  for (double v : {2.0, 4.0, 6.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
}

TEST(Table, AlignsColumns) {
  ConsoleTable t({"a", "long-header"});
  t.add_row({"x"});
  t.add_row({"longer-cell", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| a           | long-header |"), std::string::npos);
  EXPECT_NE(s.find("| longer-cell | y           |"), std::string::npos);
}

TEST(PaperData, Table3MatchesSuiteRegistry) {
  // Every Table 3 row must have a suite shape with the same order; fpp is
  // recorded verbatim in the shape metadata.
  for (const auto& row : paper::table3()) {
    const auto shape = core::suite_stencil<float>(row.benchmark);
    EXPECT_EQ(shape.order, row.k) << row.benchmark;
    EXPECT_EQ(shape.fpp_paper, row.fpp) << row.benchmark;
  }
}

TEST(PaperData, QuotedResultsSane) {
  EXPECT_EQ(paper::table1().size(), 4u);
  EXPECT_EQ(paper::table2().size(), 2u);
  EXPECT_EQ(paper::table3().size(), 15u);
  for (const auto& q : paper::quoted_temporal_results()) EXPECT_GT(q.gcells_per_s, 0.0);
  EXPECT_EQ(paper::cufft_runtimes().size(), 2u);
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 100), 1);
}

/// RAII env mutation so a throwing expectation can't leak a malformed knob
/// into later tests (config() caches at first use, but config_from_env()
/// re-reads — and other suites in this binary call it).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Config, MalformedThreadsThrowsInsteadOfSilentFallback) {
  // std::atoi would have turned "four" into 0 and silently used the
  // hardware default; strict from_chars parsing must refuse it, naming the
  // variable like the SSAM_FAULT_SPEC grammar does.
  for (const char* bad : {"four", "2x", "0", "-3", " 4", "4 "}) {
    ScopedEnv env("SSAM_THREADS", bad);
    EXPECT_THROW((void)core::config_from_env(), PreconditionError) << bad;
    try {
      (void)core::config_from_env();
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("SSAM_THREADS"), std::string::npos);
    }
  }
}

TEST(Config, MalformedDevicesThrows) {
  for (const char* bad : {"2x", "two", "0", "-1", "1.5"}) {
    ScopedEnv env("SSAM_DEVICES", bad);
    EXPECT_THROW((void)core::config_from_env(), PreconditionError) << bad;
  }
}

TEST(Config, WellFormedEnvValuesParse) {
  ScopedEnv threads("SSAM_THREADS", "3");
  ScopedEnv devices("SSAM_DEVICES", "5");
  const core::SimConfig c = core::config_from_env();
  EXPECT_EQ(c.threads, 3);
  EXPECT_EQ(c.devices, 5);
}

TEST(Config, EmptyEnvValueFallsBackToDefault) {
  // An empty assignment (SSAM_THREADS= ./run) means "unset" by shell
  // convention, not "malformed".
  ScopedEnv threads("SSAM_THREADS", "");
  ScopedEnv devices("SSAM_DEVICES", "");
  const core::SimConfig c = core::config_from_env();
  EXPECT_GE(c.threads, 1);
  EXPECT_EQ(c.devices, 2);
}

TEST(Config, DescribeNamesTuneKnobs) {
  const core::SimConfig c = core::config_from_env();
  EXPECT_NE(c.describe().find("tune_cache="), std::string::npos);
}

}  // namespace
