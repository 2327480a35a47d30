// Backend parity suite for the explicit SIMD lane engine (gpusim/simd/).
//
// Every Vec<T> primitive must produce results bit-identical to the portable
// scalar reference (simd::ref), for every backend CMake can select — that is
// the invariant that makes the backend a pure speed knob. Comparisons are
// exact (memcmp over the lane bytes, so float comparisons are bit-pattern
// comparisons, distinguishing -0.0 and NaN payloads).
//
// The KernelGolden tests pin FNV-1a hashes of full functional-mode kernel
// outputs on deterministic inputs. The constants are the same for every
// backend and platform (unfused mad + -ffp-contract=off make the arithmetic
// exactly reproducible), so CI's forced-scalar and explicit-AVX2 jobs
// checking the same constants proves cross-backend bit identity end to end,
// not just per primitive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/chain.hpp"
#include "core/conv2d.hpp"
#include "core/gemm.hpp"
#include "core/scan.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil2d_temporal.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil3d_temporal.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/simd/simd.hpp"
#include "test_util.hpp"
#include "gpusim/vec.hpp"

namespace {

using namespace ssam;
using sim::kWarpSize;
using ssam::testing::bits_equal;
using sim::Vec;
namespace simd = sim::simd;

// ---------------------------------------------------------------- fixtures

// Deterministic lane patterns. Floats mix ordinary magnitudes with the
// values that expose semantic drift between backends: signed zeros,
// infinities, NaN, denormals, and magnitudes that round visibly in
// mul/add chains.
std::vector<Vec<float>> float_vectors() {
  std::vector<Vec<float>> out;
  SplitMix64 rng(0x51D0u);
  for (int k = 0; k < 4; ++k) {
    Vec<float> v;
    for (int l = 0; l < kWarpSize; ++l) {
      v[l] = static_cast<float>(rng.next_in(-1e3, 1e3));
    }
    out.push_back(v);
  }
  Vec<float> specials;
  const float kSpecials[] = {0.0f,
                             -0.0f,
                             1.0f,
                             -1.0f,
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::denorm_min(),
                             1e-41f,
                             3e38f,
                             -3e38f,
                             1.5f,
                             0.1f,
                             -0.1f,
                             1024.25f,
                             -7.75f};
  for (int l = 0; l < kWarpSize; ++l) specials[l] = kSpecials[l % 16] * (l < 16 ? 1.0f : 3.0f);
  out.push_back(specials);
  return out;
}

std::vector<Vec<std::int32_t>> int32_vectors() {
  std::vector<Vec<std::int32_t>> out;
  SplitMix64 rng(0x32171u);
  for (int k = 0; k < 4; ++k) {
    Vec<std::int32_t> v;
    for (int l = 0; l < kWarpSize; ++l) {
      v[l] = static_cast<std::int32_t>(rng.next_u64());
    }
    out.push_back(v);
  }
  Vec<std::int32_t> specials;
  const std::int32_t kSpecials[] = {0, 1, -1, 2, -2, 31, 32, -32,
                                    std::numeric_limits<std::int32_t>::max(),
                                    std::numeric_limits<std::int32_t>::min(),
                                    1000000, -1000000, 7, -7, 255, -256};
  for (int l = 0; l < kWarpSize; ++l) {
    // Wrap-safe perturbation of the second half (kSpecials holds INT_MAX).
    specials[l] = static_cast<std::int32_t>(static_cast<std::uint32_t>(kSpecials[l % 16]) +
                                            (l >= 16 ? 13u : 0u));
  }
  out.push_back(specials);
  return out;
}

std::vector<Vec<std::int64_t>> int64_vectors() {
  std::vector<Vec<std::int64_t>> out;
  SplitMix64 rng(0x64424u);
  for (int k = 0; k < 4; ++k) {
    Vec<std::int64_t> v;
    for (int l = 0; l < kWarpSize; ++l) {
      v[l] = static_cast<std::int64_t>(rng.next_u64());
    }
    out.push_back(v);
  }
  Vec<std::int64_t> ramp;  // the addressing pattern the kernels actually use
  for (int l = 0; l < kWarpSize; ++l) ramp[l] = 123456789LL + l;
  out.push_back(ramp);
  return out;
}

template <typename T>
std::vector<Vec<T>> vectors_for();
template <>
std::vector<Vec<float>> vectors_for<float>() {
  return float_vectors();
}
template <>
std::vector<Vec<std::int32_t>> vectors_for<std::int32_t>() {
  return int32_vectors();
}
template <>
std::vector<Vec<std::int64_t>> vectors_for<std::int64_t>() {
  return int64_vectors();
}

/// Exact lane comparison: bit patterns, not value equality.
template <typename T>
void expect_lanes_eq(const Vec<T>& actual, const T (&expected)[kWarpSize],
                     const char* what) {
  if (std::memcmp(actual.lane.data(), expected, sizeof(expected)) == 0) return;
  for (int l = 0; l < kWarpSize; ++l) {
    if (std::memcmp(&actual[l], &expected[l], sizeof(T)) != 0) {
      ADD_FAILURE() << what << ": lane " << l << " diverges (backend "
                    << simd::kBackendName << "): got " << actual[l] << ", reference "
                    << expected[l];
      return;
    }
  }
}

/// Scalar predicates come out as Vec<int>.
void expect_lanes_eq(const Vec<int>& actual, const int (&expected)[kWarpSize],
                     const char* what) {
  expect_lanes_eq<int>(actual, expected, what);
}

// ------------------------------------------------------- primitive parity

template <typename T>
void check_arithmetic_parity() {
  const auto vecs = vectors_for<T>();
  T expect[kWarpSize];
  int iexpect[kWarpSize];
  for (std::size_t i = 0; i < vecs.size(); ++i) {
    const Vec<T>& a = vecs[i];
    const Vec<T>& b = vecs[(i + 1) % vecs.size()];
    const Vec<T>& c = vecs[(i + 2) % vecs.size()];
    const T s = b[7];

    simd::ref::add(expect, a.data(), b.data());
    expect_lanes_eq(Vec<T>::add(a, b), expect, "add");
    simd::ref::add_s(expect, a.data(), s);
    expect_lanes_eq(Vec<T>::add(a, s), expect, "add_s");
    simd::ref::sub(expect, a.data(), b.data());
    expect_lanes_eq(Vec<T>::sub(a, b), expect, "sub");
    simd::ref::mul(expect, a.data(), b.data());
    expect_lanes_eq(Vec<T>::mul(a, b), expect, "mul");
    simd::ref::mul_s(expect, a.data(), s);
    expect_lanes_eq(Vec<T>::mul(a, s), expect, "mul_s");
    simd::ref::mad(expect, a.data(), b.data(), c.data());
    expect_lanes_eq(Vec<T>::mad(a, b, c), expect, "mad");
    simd::ref::mad_s(expect, a.data(), s, c.data());
    expect_lanes_eq(Vec<T>::mad(a, s, c), expect, "mad_s");

    for (T scale : {T{1}, T{3}}) {
      // Vec::affine routes scale == 1 through add_s; the reference is the
      // plain affine loop either way — results must agree bit-for-bit.
      simd::ref::affine(expect, a.data(), scale, s);
      expect_lanes_eq(Vec<T>::affine(a, scale, s), expect, "affine");
    }

    const T lo = std::min(b[3], c[9]);
    const T hi = std::max(b[3], c[9]);
    simd::ref::clamp(expect, a.data(), lo, hi);
    expect_lanes_eq(Vec<T>::clamp(a, lo, hi), expect, "clamp");

    simd::ref::ge_s(iexpect, a.data(), s);
    expect_lanes_eq(Vec<T>::ge(a, s), iexpect, "ge_s");
    simd::ref::lt_s(iexpect, a.data(), s);
    expect_lanes_eq(Vec<T>::lt(a, s), iexpect, "lt_s");

    Vec<int> pred;
    for (int l = 0; l < kWarpSize; ++l) pred[l] = (l * 7 + static_cast<int>(i)) % 3 - 1;
    simd::ref::select(expect, pred.data(), a.data(), b.data());
    expect_lanes_eq(Vec<T>::select(pred, a, b), expect, "select");

    simd::ref::splat(expect, s);
    expect_lanes_eq(Vec<T>::splat(s), expect, "splat");
  }
}

template <typename T>
void check_shuffle_parity() {
  const auto vecs = vectors_for<T>();
  T expect[kWarpSize];
  for (const Vec<T>& a : vecs) {
    // shfl_up / shfl_down: delta 0 (identity), 1 (the systolic shift), the
    // Kogge-Stone powers, non-powers, 31, and past-the-warp values; the
    // clamp lanes (low delta lanes for up, high for down) are covered by
    // the reference loop's keep-own branch.
    for (int delta : {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 24, 31, 32, 40}) {
      const int norm = delta <= 0 ? 0 : (delta > kWarpSize ? kWarpSize : delta);
      if (norm == 0) {
        std::memcpy(expect, a.data(), sizeof(expect));
        expect_lanes_eq(Vec<T>::shift_up(a, delta), expect, "shift_up identity");
        expect_lanes_eq(Vec<T>::shift_down(a, delta), expect, "shift_down identity");
        continue;
      }
      simd::ref::shift_up(expect, a.data(), norm);
      expect_lanes_eq(Vec<T>::shift_up(a, delta), expect, "shift_up");
      simd::ref::shift_down(expect, a.data(), norm);
      expect_lanes_eq(Vec<T>::shift_down(a, delta), expect, "shift_down");
    }

    // shfl_xor: all 32 butterfly masks.
    for (int mask = 0; mask < kWarpSize; ++mask) {
      simd::ref::butterfly(expect, a.data(), mask);
      expect_lanes_eq(Vec<T>::butterfly(a, mask), expect, "butterfly");
    }

    // shfl_idx broadcast: powers of two, non-powers, and wrap-around
    // sources (CUDA wraps the source lane modulo the warp).
    for (int src : {0, 1, 2, 5, 11, 17, 23, 31, 33, 37}) {
      simd::ref::splat(expect, a[src & (kWarpSize - 1)]);
      expect_lanes_eq(Vec<T>::broadcast(a, src), expect, "broadcast");
    }
  }
}

TEST(SimdParity, ArithmeticFloat) { check_arithmetic_parity<float>(); }
TEST(SimdParity, ArithmeticInt32) { check_arithmetic_parity<std::int32_t>(); }
TEST(SimdParity, ArithmeticInt64) { check_arithmetic_parity<std::int64_t>(); }

TEST(SimdParity, ShufflesFloat) { check_shuffle_parity<float>(); }
TEST(SimdParity, ShufflesInt32) { check_shuffle_parity<std::int32_t>(); }
TEST(SimdParity, ShufflesInt64) { check_shuffle_parity<std::int64_t>(); }

TEST(SimdParity, LogicalAnd) {
  Vec<int> a;
  Vec<int> b;
  for (int l = 0; l < kWarpSize; ++l) {
    a[l] = (l % 3 == 0) ? 0 : l - 16;  // mixes 0, negatives, positives
    b[l] = (l % 5 == 0) ? 0 : -l;
  }
  int expect[kWarpSize];
  simd::ref::logical_and(expect, a.data(), b.data());
  expect_lanes_eq(Vec<int>::logical_and(a, b), expect, "logical_and");
}

TEST(SimdParity, Iota) {
  float fexpect[kWarpSize];
  simd::ref::iota(fexpect, 2.5f, 0.25f);
  expect_lanes_eq(Vec<float>::iota(2.5f, 0.25f), fexpect, "iota float");

  std::int32_t i32expect[kWarpSize];
  for (std::int32_t base : {0, -100, 2147483600}) {
    for (std::int32_t step : {1, 3, -2}) {
      simd::ref::iota(i32expect, base, step);
      expect_lanes_eq(Vec<std::int32_t>::iota(base, step), i32expect, "iota i32");
    }
  }

  std::int64_t i64expect[kWarpSize];
  for (std::int64_t base : {std::int64_t{0}, std::int64_t{1} << 40, std::int64_t{-7}}) {
    for (std::int64_t step : {std::int64_t{1}, std::int64_t{2048}, std::int64_t{-5}}) {
      simd::ref::iota(i64expect, base, step);
      expect_lanes_eq(Vec<std::int64_t>::iota(base, step), i64expect, "iota i64");
    }
  }
}

TEST(SimdParity, UnitStride) {
  for (std::int64_t base : {std::int64_t{0}, std::int64_t{987654321}}) {
    Vec<std::int64_t> ramp = Vec<std::int64_t>::iota(base, 1);
    EXPECT_TRUE(Vec<float>::unit_stride(ramp));
    for (int broken : {0, 1, 15, 31}) {
      Vec<std::int64_t> v = ramp;
      v[broken] += 1;
      EXPECT_FALSE(Vec<float>::unit_stride(v)) << "lane " << broken;
    }
  }
  Vec<std::int64_t> stride2 = Vec<std::int64_t>::iota(0, 2);
  EXPECT_FALSE(Vec<float>::unit_stride(stride2));

  Vec<int> iramp = Vec<int>::iota(42, 1);
  EXPECT_TRUE(Vec<float>::unit_stride(iramp));
  iramp[17] -= 3;
  EXPECT_FALSE(Vec<float>::unit_stride(iramp));
}

// ------------------------------------------------ lane-range row moves
//
// load_clamped / store_lanes / add_shifted of the active backend against
// RefOps and against their per-lane definitions, over every warp placement
// relative to rows of 1-70 columns: warps left of, straddling, inside, and
// right of the row. Rows are allocated at their exact width, so a backend
// touching a column outside the row is a heap overflow under ASan.

/// Row values: distinct, and including signed zeros and a NaN payload
/// (the moves are bit copies, so every pattern must survive).
std::vector<float> row_values(int width, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<float> row(static_cast<std::size_t>(width));
  for (float& v : row) v = static_cast<float>(rng.next_in(-100.0, 100.0));
  if (width > 2) row[1] = -0.0f;
  if (width > 4) row[3] = std::numeric_limits<float>::quiet_NaN();
  return row;
}

TEST(SimdParity, LoadClampedEveryPlacement) {
  for (int width = 1; width <= 70; ++width) {
    const std::vector<float> row = row_values(width, 0x10adu + static_cast<unsigned>(width));
    for (Index col0 = -40; col0 <= width + 8; ++col0) {
      SCOPED_TRACE("width=" + std::to_string(width) + " col0=" + std::to_string(col0));
      Vec<float> want;
      for (int l = 0; l < kWarpSize; ++l) {
        want[l] = row[static_cast<std::size_t>(std::clamp<Index>(col0 + l, 0, width - 1))];
      }
      Vec<float> got;
      Vec<float> ref;
      simd::LaneOps<float>::load_clamped(got.data(), row.data(), col0, width);
      simd::RefOps<float>::load_clamped(ref.data(), row.data(), col0, width);
      EXPECT_TRUE(bits_equal(got.data(), want.data(), kWarpSize));
      EXPECT_TRUE(bits_equal(ref.data(), want.data(), kWarpSize));
    }
  }
}

TEST(SimdParity, StoreLanesEveryPlacement) {
  const float kSentinel = -12345.5f;
  const Vec<float> v = float_vectors().back();  // the special-value vector
  for (int width = 1; width <= 70; ++width) {
    for (Index x0 = -40; x0 <= width + 8; ++x0) {
      for (int first : {0, 1, 2, 5, 16, 17, 31}) {
        // The range store_valid_rows passes: lanes at or above `first`
        // whose column lies in the row (possibly empty).
        const int lo = static_cast<int>(std::max<Index>(first, -x0));
        const int hi = static_cast<int>(std::min<Index>(kWarpSize, width - x0));
        SCOPED_TRACE("width=" + std::to_string(width) + " x0=" + std::to_string(x0) +
                     " lanes=[" + std::to_string(lo) + "," + std::to_string(hi) + ")");
        std::vector<float> want(static_cast<std::size_t>(width), kSentinel);
        for (int l = std::max(lo, 0); l < std::min(hi, kWarpSize); ++l) {
          want[static_cast<std::size_t>(x0 + l)] = v[l];
        }
        std::vector<float> got(static_cast<std::size_t>(width), kSentinel);
        std::vector<float> ref(static_cast<std::size_t>(width), kSentinel);
        simd::LaneOps<float>::store_lanes(got.data(), x0, v.data(), lo, hi);
        simd::RefOps<float>::store_lanes(ref.data(), x0, v.data(), lo, hi);
        EXPECT_TRUE(bits_equal(got.data(), want.data(), want.size()));
        EXPECT_TRUE(bits_equal(ref.data(), want.data(), want.size()));
      }
    }
  }
}

TEST(SimdParity, AddShiftedEveryShift) {
  const auto vs = float_vectors();
  for (std::size_t a = 0; a + 1 < vs.size(); ++a) {
    const Vec<float>& sum = vs[a];
    const Vec<float>& row = vs[a + 1];
    for (int shift = 0; shift <= kWarpSize + 8; ++shift) {
      SCOPED_TRACE("shift=" + std::to_string(shift));
      Vec<float> want;
      for (int l = 0; l < kWarpSize; ++l) want[l] = sum[l] + row[std::max(l - shift, 0)];
      Vec<float> got;
      Vec<float> ref;
      simd::LaneOps<float>::add_shifted(got.data(), sum.data(), row.data(), shift);
      simd::RefOps<float>::add_shifted(ref.data(), sum.data(), row.data(), shift);
      EXPECT_TRUE(bits_equal(got.data(), want.data(), kWarpSize));
      EXPECT_TRUE(bits_equal(ref.data(), want.data(), kWarpSize));
    }
  }
}

// -------------------------------------------- cross-backend kernel goldens

using ssam::testing::fnv1a;

/// Golden output hashes of the core kernels in functional mode. Identical
/// for every SIMD backend, compiler, and host — the arithmetic is exactly
/// specified (unfused mad, -ffp-contract=off, deterministic fills). CI runs
/// this same test in the forced-scalar and explicit-AVX2 jobs; agreement
/// across those runs is the end-to-end bit-identity guarantee.
/// (Regenerate with SSAM_PRINT_GOLDEN=1 if a kernel's schedule changes.)
struct Golden {
  const char* name;
  std::uint64_t hash;
};

std::uint64_t golden_conv2d() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(192, 128);
  fill_random(in, 7);
  Grid2D<float> out(192, 128);
  std::vector<float> w(25);
  fill_random(w, 8, -0.2, 0.2);
  core::conv2d_ssam<float>(arch, in.cview(), w, 5, 5, out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil2d() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(256, 96);
  fill_random(in, 9);
  Grid2D<float> out(256, 96);
  core::stencil2d_ssam<float>(arch, in.cview(), core::star2d<float>(2), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil2d_temporal() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(160, 120);
  fill_random(in, 10);
  Grid2D<float> out(160, 120);
  core::TemporalSsamOptions opt;
  opt.t = 3;
  core::stencil2d_ssam_temporal<float>(arch, in.cview(), core::star2d<float>(1), out.view(),
                                       opt);
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil3d() {
  const auto& arch = sim::tesla_v100();
  Grid3D<float> in(64, 48, 32);
  fill_random(in, 11);
  Grid3D<float> out(64, 48, 32);
  core::stencil3d_ssam<float>(arch, in.cview(), core::star3d<float>(1), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

// A filter wider than half a warp: 289 taps over 17 shuffled columns.
std::uint64_t golden_conv2d_17x17() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(160, 72);
  fill_random(in, 15);
  Grid2D<float> out(160, 72);
  std::vector<float> w(17 * 17);
  fill_random(w, 16, -0.05, 0.05);
  core::conv2d_ssam<float>(arch, in.cview(), w, 17, 17, out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

// A dual chain stage: two partial sums over one register-cache load,
// joined per lane.
std::uint64_t golden_chain2d_dual() {
  Grid2D<float> in(150, 90);
  fill_random(in, 17);
  Grid2D<float> out(150, 90);
  (void)core::run_chain2d<float>(
      sim::tesla_v100(), in, out,
      {core::ChainStage<float>::stencil(core::star2d<float>(1)),
       core::ChainStage<float>::dual_stencil(core::star2d<float>(2),
                                             core::box2d<float>(3, 3),
                                             [](float a, float b) { return a - 0.5f * b; })});
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

// Star-2 in 3D: the off-plane sums are re-read with a 2-lane shift.
std::uint64_t golden_stencil3d_star2() {
  const auto& arch = sim::tesla_v100();
  Grid3D<float> in(72, 40, 28);
  fill_random(in, 18);
  Grid3D<float> out(72, 40, 28);
  core::stencil3d_ssam<float>(arch, in.cview(), core::star3d<float>(2), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil3d_temporal() {
  const auto& arch = sim::tesla_v100();
  Grid3D<float> in(64, 36, 30);
  fill_random(in, 19);
  Grid3D<float> out(64, 36, 30);
  core::Temporal3DOptions opt;
  opt.t = 2;
  core::stencil3d_ssam_temporal<float>(arch, in.cview(), core::star3d<float>(1), out.view(),
                                       opt);
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

// Grids narrower than one warp: every warp is an edge warp in x, and most
// are edge warps in y too.
std::uint64_t golden_stencil2d_narrow() {
  Grid2D<float> in(29, 7);
  fill_random(in, 20);
  Grid2D<float> out(29, 7);
  core::stencil2d_ssam<float>(sim::tesla_v100(), in.cview(), core::star2d<float>(2), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_conv2d_narrow() {
  Grid2D<float> in(31, 9);
  fill_random(in, 21);
  Grid2D<float> out(31, 9);
  std::vector<float> w(25);
  fill_random(w, 22, -0.2, 0.2);
  core::conv2d_ssam<float>(sim::tesla_v100(), in.cview(), w, 5, 5, out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil3d_narrow() {
  Grid3D<float> in(20, 9, 7);
  fill_random(in, 23);
  Grid3D<float> out(20, 9, 7);
  core::stencil3d_ssam<float>(sim::tesla_v100(), in.cview(), core::star3d<float>(1), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil2d_temporal_narrow() {
  Grid2D<float> in(37, 11);
  fill_random(in, 24);
  Grid2D<float> out(37, 11);
  core::TemporalSsamOptions opt;
  opt.t = 2;
  core::stencil2d_ssam_temporal<float>(sim::tesla_v100(), in.cview(), core::star2d<float>(1),
                                       out.view(), opt);
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_gemm() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> a(96, 80), b(112, 96), c(112, 80);
  fill_random(a, 12);
  fill_random(b, 13);
  core::gemm_ssam<float>(arch, a.cview(), b.cview(), c.view());
  return fnv1a(c.data(), sizeof(float) * static_cast<std::size_t>(c.size()));
}

std::uint64_t golden_scan() {
  const auto& arch = sim::tesla_v100();
  std::vector<float> in(10000);
  fill_random(in, 14);
  std::vector<float> out(in.size());
  core::scan_inclusive<float>(arch, in, out);
  return fnv1a(out.data(), sizeof(float) * out.size());
}

TEST(KernelGolden, BitIdenticalAcrossBackends) {
  const Golden goldens[] = {
      {"conv2d", golden_conv2d()},
      {"stencil2d", golden_stencil2d()},
      {"stencil2d_temporal", golden_stencil2d_temporal()},
      {"stencil3d", golden_stencil3d()},
      {"gemm", golden_gemm()},
      {"scan", golden_scan()},
      {"conv2d_17x17", golden_conv2d_17x17()},
      {"chain2d_dual", golden_chain2d_dual()},
      {"stencil3d_star2", golden_stencil3d_star2()},
      {"stencil3d_temporal", golden_stencil3d_temporal()},
      {"stencil2d_narrow", golden_stencil2d_narrow()},
      {"conv2d_narrow", golden_conv2d_narrow()},
      {"stencil3d_narrow", golden_stencil3d_narrow()},
      {"stencil2d_temporal_narrow", golden_stencil2d_temporal_narrow()},
  };
  if (std::getenv("SSAM_PRINT_GOLDEN") != nullptr) {
    for (const Golden& g : goldens) {
      std::printf("  {\"%s\", 0x%016llxull},\n", g.name,
                  static_cast<unsigned long long>(g.hash));
    }
  }
  const Golden expected[] = {
      {"conv2d", 0x494650514c4928f8ull},
      {"stencil2d", 0xb64c0d89888b8337ull},
      {"stencil2d_temporal", 0x22f7a654458ede3full},
      {"stencil3d", 0xf9026ccf1cdd75b6ull},
      {"gemm", 0x81ae90bc5dd70376ull},
      {"scan", 0xc3b6d6659b933233ull},
      {"conv2d_17x17", 0xa326777922d2898bull},
      {"chain2d_dual", 0x6800e9fcd23cd3a0ull},
      {"stencil3d_star2", 0xf5bafab425e6b0e7ull},
      {"stencil3d_temporal", 0x9e2c92311b73d866ull},
      {"stencil2d_narrow", 0xa949008d4539d1d1ull},
      {"conv2d_narrow", 0x73987bfa6585821cull},
      {"stencil3d_narrow", 0xdaca86fce739d68dull},
      {"stencil2d_temporal_narrow", 0xe829f892f4fe5e8full},
  };
  for (std::size_t i = 0; i < std::size(goldens); ++i) {
    EXPECT_EQ(goldens[i].hash, expected[i].hash)
        << goldens[i].name << " output drifted from the cross-backend golden "
        << "(backend " << simd::kBackendName << ")";
  }
}

}  // namespace
