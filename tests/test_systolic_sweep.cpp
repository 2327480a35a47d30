// Differential suite of the systolic sweep primitive
// (WarpContextT::systolic_sweep over a sim::TapSchedule, and the lane
// backends' LaneOps<T>::systolic_sweep under it).
//
// The oracle is the per-op lane loop every SSAM kernel used to spell out:
// per output row, a zero partial sum, Vec::shift_up by one lane between
// columns, and one Vec::mad per tap. The primitive must reproduce it bit
// for bit (memcmp over the lane bytes, so -0.0 and NaN payloads count) on
// every backend, including the register-resident AVX-512 / AVX2 sweeps and
// the reference fallback. In timing mode it must also issue the same op
// sequence: identical values, counters and scoreboard state.
//
// Randomized axes: passes (1-3), columns (1-33, interior and leading
// columns may be empty), taps per column, row offsets, row counts 1-32 (not
// just multiples of a backend's row group), and lanes drawn from ordinary
// magnitudes, NaN, +-Inf, denormals and signed zeros. The failing seed is
// printed; SSAM_SWEEP_SEED / SSAM_SWEEP_CASES reproduce it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/tap_schedule.hpp"
#include "gpusim/warp.hpp"

namespace {

using namespace ssam;
using sim::kWarpSize;
using sim::Reg;
using sim::TapSchedule;
using sim::Vec;
namespace simd = sim::simd;

int env_int(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return fallback;
}

int total_cases() { return env_int("SSAM_SWEEP_CASES", 300); }
std::uint64_t base_seed() {
  return static_cast<std::uint64_t>(env_int("SSAM_SWEEP_SEED", 0x5157));
}

/// The special values a case draws lanes from. IEEE 754 leaves open which
/// NaN an add returns when both operands are NaN, and C++ compilers treat
/// + as commutative, so two compilations of the same loop may legitimately
/// pick different ones. A case therefore uses ONE NaN bit pattern: either
/// the hardware's default NaN (the one 0 * inf and inf - inf produce), with
/// infinities in play, or a quiet NaN with a random payload and no
/// infinities, so no other NaN can arise. Every other bit — payload
/// propagation, signed zeros, denormals — must match exactly.
template <typename T>
struct Specials {
  bool on = false;
  bool infinities = false;
  T nan{};
};

template <typename T>
Specials<T> draw_specials(SplitMix64& rng) {
  Specials<T> sp;
  sp.on = true;
  sp.infinities = rng.next_below(2) == 0;
  if (sp.infinities) {
    volatile T inf = std::numeric_limits<T>::infinity();  // computed at run time
    sp.nan = inf - inf;
  } else {
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    Bits bits;
    const T qnan = std::numeric_limits<T>::quiet_NaN();
    std::memcpy(&bits, &qnan, sizeof(T));
    bits |= static_cast<Bits>(rng.next_u64() & 0xffffu);  // payload, still quiet
    if (rng.next_below(2) == 0) bits |= Bits{1} << (8 * sizeof(T) - 1);  // sign
    std::memcpy(&sp.nan, &bits, sizeof(T));
  }
  return sp;
}

/// A lane value: mostly ordinary magnitudes, sometimes a value that exposes
/// drift between backends (NaN, infinities, denormals, signed zeros).
template <typename T>
T random_value(SplitMix64& rng, const Specials<T>& sp) {
  if (sp.on && rng.next_below(6) == 0) {
    switch (rng.next_below(6)) {
      case 0: return sp.nan;
      case 1: return sp.infinities ? std::numeric_limits<T>::infinity() : T{1};
      case 2: return sp.infinities ? -std::numeric_limits<T>::infinity() : T{-1};
      case 3: return std::numeric_limits<T>::denorm_min() * static_cast<T>(1 + rng.next_below(9));
      case 4: return static_cast<T>(-0.0);
      default: return T{0};
    }
  }
  return static_cast<T>(rng.next_in(-4.0, 4.0));
}

/// `count` output rows plus the rows the schedule reaches below them.
template <typename T>
std::vector<Reg<T>> random_rows(SplitMix64& rng, int n, const Specials<T>& specials) {
  std::vector<Reg<T>> rows(static_cast<std::size_t>(n));
  for (Reg<T>& r : rows) {
    for (int l = 0; l < kWarpSize; ++l) r.v[l] = random_value<T>(rng, specials);
    r.ready = 0;
  }
  return rows;
}

/// A schedule of `passes` passes, each with 1..max_cols columns of 0..max_taps
/// taps reading rows [0, reach].
template <typename T>
TapSchedule<T> random_schedule(SplitMix64& rng, int passes, int max_cols, int max_taps,
                               int reach, const Specials<T>& specials) {
  TapSchedule<T> s;
  for (int k = 0; k < passes; ++k) {
    s.add_pass();
    const int cols = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_cols)));
    for (int c = 0; c < cols; ++c) {
      s.add_column();
      // About one column in four is empty: the sum still has to shift.
      const int taps = rng.next_below(4) == 0
                           ? 0
                           : static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_taps) + 1));
      for (int t = 0; t < taps; ++t) {
        const int row = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(reach) + 1));
        s.add_tap(row, random_value<T>(rng, specials), t);
      }
    }
  }
  return s;
}

/// The per-op oracle: out[k][i] is pass k's sum for output row i.
template <typename T>
std::vector<std::vector<Vec<T>>> per_op_sweep(const std::vector<Reg<T>>& rows, int count,
                                              const TapSchedule<T>& sched) {
  std::vector<std::vector<Vec<T>>> out(static_cast<std::size_t>(sched.passes()));
  for (int k = 0; k < sched.passes(); ++k) {
    out[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(count));
    const int cols = sched.pass(k).columns;
    for (int i = 0; i < count; ++i) {
      Vec<T> sum = Vec<T>::splat(T{});
      for (int c = 0; c < cols; ++c) {
        if (c > 0) sum = Vec<T>::shift_up(sum, 1);
        for (const auto& tap : sched.column(k, c)) {
          sum = Vec<T>::mad(rows[static_cast<std::size_t>(i + tap.row)].v, tap.coeff, sum);
        }
      }
      out[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] = sum;
    }
  }
  return out;
}

template <typename T>
::testing::AssertionResult lanes_equal(const Vec<T>& a, const Vec<T>& b) {
  if (std::memcmp(a.data(), b.data(), sizeof(a.lane)) == 0) return ::testing::AssertionSuccess();
  for (int l = 0; l < kWarpSize; ++l) {
    if (std::memcmp(&a[l], &b[l], sizeof(T)) != 0) {
      return ::testing::AssertionFailure() << "lane " << l << ": " << a[l] << " vs " << b[l];
    }
  }
  return ::testing::AssertionFailure() << "lanes differ";
}

/// Runs the functional primitive and checks every emitted sum against the
/// oracle, and that each (pass, row) is emitted exactly once.
template <typename T>
void expect_functional_matches(const std::vector<Reg<T>>& rows, int count,
                               const TapSchedule<T>& sched) {
  const auto want = per_op_sweep(rows, count, sched);
  sim::FunctionalWarpContext wc(sim::tesla_v100(), nullptr, 0);
  std::vector<int> seen(static_cast<std::size_t>(sched.passes() * count), 0);
  wc.systolic_sweep(rows.data(), count, sched, [&](int k, int i, const Reg<T>& sum) {
    ASSERT_TRUE(k >= 0 && k < sched.passes() && i >= 0 && i < count);
    ++seen[static_cast<std::size_t>(k * count + i)];
    EXPECT_TRUE(lanes_equal(sum.v, want[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)]))
        << "pass " << k << " row " << i;
  });
  for (std::size_t j = 0; j < seen.size(); ++j) EXPECT_EQ(seen[j], 1) << "emit " << j;

  // The into-sweep: pass k's sum of row i at out[k * count + i].
  std::vector<Reg<T>> into(static_cast<std::size_t>(sched.passes() * count));
  wc.systolic_sweep(rows.data(), count, sched, into.data());
  for (int k = 0; k < sched.passes(); ++k) {
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(lanes_equal(into[static_cast<std::size_t>(k * count + i)].v,
                              want[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)]))
          << "into pass " << k << " row " << i;
    }
  }

  // The backend entry point directly, one pass at a time.
  for (int k = 0; k < sched.passes(); ++k) {
    std::vector<Vec<T>> got(static_cast<std::size_t>(count));
    simd::LaneOps<T>::systolic_sweep(got[0].data(), sizeof(Vec<T>), rows[0].v.data(),
                                     sizeof(Reg<T>), count, sched.pass(k));
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(lanes_equal(got[static_cast<std::size_t>(i)],
                              want[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)]))
          << "backend pass " << k << " row " << i;
    }
  }
}

TEST(SystolicSweep, RandomizedMatchesPerOpLoop) {
  const int cases = total_cases();
  const std::uint64_t seed0 = base_seed();
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("sweep case seed=" + std::to_string(seed) +
                 " (reproduce: SSAM_SWEEP_CASES=1 SSAM_SWEEP_SEED=" + std::to_string(seed) +
                 ")");
    SplitMix64 rng(seed);
    const int count = 1 + static_cast<int>(rng.next_below(32));
    const int reach = static_cast<int>(rng.next_below(9));
    const int passes = 1 + static_cast<int>(rng.next_below(3));
    const Specials<float> specials =
        rng.next_below(2) == 0 ? draw_specials<float>(rng) : Specials<float>{};
    const TapSchedule<float> sched =
        random_schedule<float>(rng, passes, 33, 6, reach, specials);
    const auto rows = random_rows<float>(rng, count + reach, specials);
    expect_functional_matches(rows, count, sched);
    if (HasFailure()) return;
  }
}

TEST(SystolicSweep, EveryRowCountUpToAWarp) {
  SplitMix64 rng(base_seed() ^ 0xc0u);
  const Specials<float> sp = draw_specials<float>(rng);
  const TapSchedule<float> sched = random_schedule<float>(rng, 2, 7, 4, 4, sp);
  const auto rows = random_rows<float>(rng, 32 + 4, sp);
  for (int count = 1; count <= 32; ++count) {
    SCOPED_TRACE("count=" + std::to_string(count));
    expect_functional_matches(rows, count, sched);
  }
}

TEST(SystolicSweep, EmptyInteriorAndLeadingColumnsStillShift) {
  TapSchedule<float> s;
  s.add_pass();
  s.add_column();  // empty leading column
  s.add_column();
  s.add_tap(1, 0.5f);
  s.add_column();  // two empty interior columns
  s.add_column();
  s.add_column();
  s.add_tap(0, -1.25f);
  s.add_tap(2, 3.0f);
  s.add_column();  // empty trailing column
  SplitMix64 rng(base_seed() ^ 0xe7u);
  const Specials<float> sp = draw_specials<float>(rng);
  const auto rows = random_rows<float>(rng, 5 + 2, sp);
  expect_functional_matches(rows, 5, s);

  // A one-column schedule with no taps at all yields +0 in every lane.
  TapSchedule<float> none;
  none.add_pass();
  none.add_column();
  sim::FunctionalWarpContext wc(sim::tesla_v100(), nullptr, 0);
  wc.systolic_sweep(rows.data(), 3, none, [&](int, int, const Reg<float>& sum) {
    EXPECT_TRUE(lanes_equal(sum.v, Vec<float>::splat(0.0f)));
  });
}

TEST(SystolicSweep, WarpWideScheduleWithHundredsOfTaps) {
  SplitMix64 rng(base_seed() ^ 0x400u);
  const Specials<float> sp = draw_specials<float>(rng);
  TapSchedule<float> s;
  s.add_pass();
  for (int c = 0; c < 32; ++c) {
    s.add_column();
    for (int t = 0; t < 13; ++t) {
      s.add_tap(static_cast<int>(rng.next_below(17)), random_value<float>(rng, {}));
    }
  }
  ASSERT_EQ(s.tap_count(), 416);
  const auto rows = random_rows<float>(rng, 32 + 16, sp);
  expect_functional_matches(rows, 32, s);
  expect_functional_matches(rows, 31, s);
}

TEST(SystolicSweep, DoubleTakesTheReferencePath) {
  SplitMix64 rng(base_seed() ^ 0xd0u);
  const Specials<double> sp = draw_specials<double>(rng);
  const TapSchedule<double> sched = random_schedule<double>(rng, 2, 9, 5, 3, sp);
  const auto rows = random_rows<double>(rng, 11 + 3, sp);
  expect_functional_matches(rows, 11, sched);
}

TEST(SystolicSweep, AppendConcatenatesPasses) {
  SplitMix64 rng(base_seed() ^ 0xa9u);
  const TapSchedule<float> a = random_schedule<float>(rng, 1, 5, 3, 2, {});
  const TapSchedule<float> b = random_schedule<float>(rng, 2, 5, 3, 2, {});
  TapSchedule<float> ab;
  ab.append(a);
  ab.append(b);
  ASSERT_EQ(ab.passes(), 3);
  ASSERT_EQ(ab.tap_count(), a.tap_count() + b.tap_count());
  const auto rows = random_rows<float>(rng, 6 + 2, {});
  const auto wa = per_op_sweep(rows, 6, a);
  const auto wb = per_op_sweep(rows, 6, b);
  const auto wab = per_op_sweep(rows, 6, ab);
  for (int i = 0; i < 6; ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_TRUE(lanes_equal(wab[0][u], wa[0][u]));
    EXPECT_TRUE(lanes_equal(wab[1][u], wb[0][u]));
    EXPECT_TRUE(lanes_equal(wab[2][u], wb[1][u]));
  }
}

// ------------------------------------------------------------ timing mode

/// Scoreboard and counter state after a timing-mode run.
struct TimingTrace {
  Cycle cursor;
  Cycle completion;
  double slots;
  sim::Counters counters;
  std::vector<Reg<float>> sums;  ///< in emit order
};

void expect_same_trace(const TimingTrace& a, const TimingTrace& b) {
  EXPECT_EQ(a.cursor, b.cursor);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_DOUBLE_EQ(a.slots, b.slots);
  EXPECT_EQ(a.counters.fp_ops, b.counters.fp_ops);
  EXPECT_EQ(a.counters.shfl_ops, b.counters.shfl_ops);
  EXPECT_EQ(a.counters.alu_ops, b.counters.alu_ops);
  EXPECT_EQ(a.counters.smem_loads, b.counters.smem_loads);
  EXPECT_EQ(a.counters.smem_broadcasts, b.counters.smem_broadcasts);
  ASSERT_EQ(a.sums.size(), b.sums.size());
  for (std::size_t j = 0; j < a.sums.size(); ++j) {
    EXPECT_TRUE(lanes_equal(a.sums[j].v, b.sums[j].v)) << "sum " << j;
    EXPECT_EQ(a.sums[j].ready, b.sums[j].ready) << "sum " << j;
  }
}

TimingTrace finish(const sim::WarpContext& wc, std::vector<Reg<float>> sums) {
  return {wc.scoreboard().issue_cursor(), wc.scoreboard().completion(),
          wc.scoreboard().issue_slots(), wc.scoreboard().counters(), std::move(sums)};
}

/// The loop the kernels used to spell out, in timing mode: per row, per
/// pass, shfl_up between columns and one mad (with `weights`: one
/// mad_broadcast of weights[tap.slot]) per tap.
TimingTrace hand_written(const std::vector<Reg<float>>& rows, int count,
                         const TapSchedule<float>& sched, const sim::Smem<float>* weights) {
  sim::WarpContext wc(sim::tesla_v100(), nullptr, 0);
  std::vector<Reg<float>> sums;
  for (int i = 0; i < count; ++i) {
    for (int k = 0; k < sched.passes(); ++k) {
      Reg<float> sum = wc.uniform(0.0f);
      for (int col = 0; col < sched.pass(k).columns; ++col) {
        if (col > 0) sum = wc.shfl_up(sim::kFullMask, sum, 1);
        for (const auto& tap : sched.column(k, col)) {
          const Reg<float>& row = rows[static_cast<std::size_t>(i + tap.row)];
          sum = weights != nullptr ? wc.mad_broadcast(row, *weights, tap.slot, sum)
                                   : wc.mad(row, tap.coeff, sum);
        }
      }
      sums.push_back(sum);
    }
  }
  return finish(wc, std::move(sums));
}

TimingTrace primitive(const std::vector<Reg<float>>& rows, int count,
                      const TapSchedule<float>& sched, const sim::Smem<float>* weights) {
  sim::WarpContext wc(sim::tesla_v100(), nullptr, 0);
  std::vector<Reg<float>> sums;
  wc.systolic_sweep(
      rows.data(), count, sched, [&](int, int, const Reg<float>& sum) { sums.push_back(sum); },
      weights);
  return finish(wc, std::move(sums));
}

/// The into-sweep in timing mode, its sums listed in emit order (row by
/// row, a row's passes in order).
TimingTrace primitive_into(const std::vector<Reg<float>>& rows, int count,
                           const TapSchedule<float>& sched, const sim::Smem<float>* weights) {
  sim::WarpContext wc(sim::tesla_v100(), nullptr, 0);
  std::vector<Reg<float>> out(static_cast<std::size_t>(sched.passes() * count));
  wc.systolic_sweep(rows.data(), count, sched, out.data(), weights);
  std::vector<Reg<float>> sums;
  for (int i = 0; i < count; ++i) {
    for (int k = 0; k < sched.passes(); ++k) {
      sums.push_back(out[static_cast<std::size_t>(k * count + i)]);
    }
  }
  return finish(wc, std::move(sums));
}

TEST(SystolicSweep, TimingModeIssuesTheHandWrittenSequence) {
  for (int c = 0; c < 40; ++c) {
    const std::uint64_t seed = base_seed() + 0x7000u + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("timing case seed=" + std::to_string(seed));
    SplitMix64 rng(seed);
    const Specials<float> sp = draw_specials<float>(rng);
    const int count = 1 + static_cast<int>(rng.next_below(12));
    const TapSchedule<float> sched = random_schedule<float>(rng, 2, 6, 4, 3, sp);
    auto rows = random_rows<float>(rng, count + 3, sp);
    // Rows arrive at staggered cycles, as register-cache loads would.
    for (std::size_t r = 0; r < rows.size(); ++r) rows[r].ready = static_cast<Cycle>(3 * r);

    expect_same_trace(primitive(rows, count, sched, nullptr),
                      hand_written(rows, count, sched, nullptr));
    expect_same_trace(primitive_into(rows, count, sched, nullptr),
                      hand_written(rows, count, sched, nullptr));

    // Broadcast shared-memory coefficients: word j holds the j-th tap's.
    TapSchedule<float> bsched;
    std::vector<float> filter;
    for (int k = 0; k < sched.passes(); ++k) {
      bsched.add_pass();
      for (int col = 0; col < sched.pass(k).columns; ++col) {
        bsched.add_column();
        for (const auto& tap : sched.column(k, col)) {
          bsched.add_tap(tap.row, tap.coeff, static_cast<int>(filter.size()));
          filter.push_back(tap.coeff);
        }
      }
    }
    filter.push_back(0.0f);  // keep the array non-empty
    const sim::Smem<float> smem{filter.data(), static_cast<int>(filter.size()), 0};
    expect_same_trace(primitive(rows, count, bsched, &smem),
                      hand_written(rows, count, bsched, &smem));
    expect_same_trace(primitive_into(rows, count, bsched, &smem),
                      hand_written(rows, count, bsched, &smem));
    if (HasFailure()) return;
  }
}

// ------------------------------------------ shared-row publish and combine

TEST(SystolicSweep, ShiftedSharedAddMatchesClampedGather) {
  const auto& arch = sim::tesla_v100();
  SplitMix64 rng(base_seed() ^ 0x5ea1u);
  std::vector<float> buf(3 * kWarpSize);
  const Specials<float> sp = draw_specials<float>(rng);
  for (float& v : buf) v = random_value<float>(rng, sp);
  const sim::Smem<float> smem{buf.data(), static_cast<int>(buf.size()), 0};
  const auto addend = random_rows<float>(rng, 1, sp);
  for (int base : {0, kWarpSize, 2 * kWarpSize}) {
    for (int shift = 0; shift <= kWarpSize + 3; ++shift) {
      SCOPED_TRACE("base=" + std::to_string(base) + " shift=" + std::to_string(shift));
      // The explicit index sequence, in timing mode.
      sim::WarpContext hand(arch, nullptr, 0);
      Reg<int> sidx = hand.add(hand.lane_id(), base - shift);
      sidx = hand.clamp(sidx, base, base + kWarpSize - 1);
      const Reg<float> want = hand.add(addend[0], hand.load_shared(smem, sidx));

      sim::WarpContext timed(arch, nullptr, 0);
      const Reg<float> got_t = timed.add_shared_shifted(addend[0], smem, base, shift);
      expect_same_trace(finish(timed, {got_t}), finish(hand, {want}));

      sim::FunctionalWarpContext fwc(arch, nullptr, 0);
      EXPECT_TRUE(lanes_equal(fwc.add_shared_shifted(addend[0], smem, base, shift).v, want.v));
    }
  }
}

TEST(SystolicSweep, SharedRowPublishMatchesRampedStore) {
  const auto& arch = sim::tesla_v100();
  SplitMix64 rng(base_seed() ^ 0x9b1u);
  const Specials<float> sp = draw_specials<float>(rng);
  const auto v = random_rows<float>(rng, 1, sp);
  for (int base : {0, 7, kWarpSize}) {
    SCOPED_TRACE("base=" + std::to_string(base));
    std::vector<float> want_buf(3 * kWarpSize, 0.0f);
    std::vector<float> timed_buf = want_buf;
    std::vector<float> func_buf = want_buf;
    sim::WarpContext hand(arch, nullptr, 0);
    hand.store_shared(sim::Smem<float>{want_buf.data(), 3 * kWarpSize, 0},
                      hand.iota<int>(base, 1), v[0]);
    sim::WarpContext timed(arch, nullptr, 0);
    timed.store_shared_row(sim::Smem<float>{timed_buf.data(), 3 * kWarpSize, 0}, base, v[0]);
    expect_same_trace(finish(timed, {}), finish(hand, {}));
    EXPECT_EQ(timed.scoreboard().counters().smem_stores,
              hand.scoreboard().counters().smem_stores);
    sim::FunctionalWarpContext fwc(arch, nullptr, 0);
    fwc.store_shared_row(sim::Smem<float>{func_buf.data(), 3 * kWarpSize, 0}, base, v[0]);
    EXPECT_EQ(std::memcmp(timed_buf.data(), want_buf.data(), want_buf.size() * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(func_buf.data(), want_buf.data(), want_buf.size() * sizeof(float)), 0);
  }
}

}  // namespace
