// Portable reference implementation of the 32-lane engine.
//
// `ref::` free functions define the *semantics* of every lane primitive as
// one short fixed-trip-count loop per operation. Every vector backend must
// reproduce these bit-for-bit (the parity suite in tests/test_simd_parity.cpp
// enforces exact equality, including float bit patterns), which is what keeps
// functional-mode kernel results identical no matter which backend CMake
// selected. `RefOps<T>` packages the reference as the customization point:
// `LaneOps<T>` (see simd.hpp) derives from it, and a vector backend
// specializes `LaneOps` for the element types it accelerates, shadowing just
// the statics it implements natively.
//
// FP contract note: `mad` is deliberately two roundings (multiply, then add),
// never a fused FMA. The build adds -ffp-contract=off so the compiler cannot
// silently contract these loops on FMA-capable targets — otherwise the scalar
// reference would fuse under -march=native but not under the default arch,
// and cross-backend bit parity would be flag-dependent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace ssam::sim::simd {

/// Lane count of the engine: one CUDA warp.
inline constexpr int kSimdLanes = 32;

// Vectorization hint for the reference loops. `omp simd` needs
// -fopenmp / -fopenmp-simd; without it the fixed trip count still lets the
// optimizer auto-vectorize at -O2/-O3.
#if defined(_OPENMP)
#define SSAM_SIMD _Pragma("omp simd")
#else
#define SSAM_SIMD
#endif

/// One tap of a systolic sweep: output row i accumulates lane-wise
/// rows[i + row] * coeff. `slot` is the coefficient's word in a broadcast
/// shared-memory filter (read only by the timing model).
template <typename T>
struct SweepTap {
  std::int32_t row;
  std::int32_t slot;
  T coeff;
};

/// One pass of a flat tap schedule as the backends see it: `columns`
/// columns left to right, column c holding the taps with indices
/// [c == 0 ? first : col_end[c - 1], col_end[c]).
template <typename T>
struct SweepPass {
  const SweepTap<T>* taps;
  const std::int32_t* col_end;
  std::int32_t first;
  int columns;
};

/// `p` advanced by `bytes` (sweep rows are warp values a stride apart).
template <typename P>
[[nodiscard]] inline P* byte_offset(P* p, std::size_t bytes) {
  using Byte = std::conditional_t<std::is_const_v<P>, const unsigned char, unsigned char>;
  return reinterpret_cast<P*>(reinterpret_cast<Byte*>(p) + bytes);
}

/// Splits `count` sweep rows into groups of kGroup plus one smaller
/// remainder group, calling run(first_row, std::integral_constant<int, G>)
/// per group, so a backend can hold a compile-time number of partial sums
/// in registers.
template <int kGroup, typename Run>
inline void for_row_groups(int count, Run&& run) {
  int i = 0;
  for (; i + kGroup <= count; i += kGroup) run(i, std::integral_constant<int, kGroup>{});
  if constexpr (kGroup > 1) {
    if (i < count) {
      for_row_groups<kGroup - 1>(count - i, [&](int j, auto g) { run(i + j, g); });
    }
  }
}

/// Lanes [lo, hi) of a warp whose lane l maps to row column col0 + l are
/// the ones inside a row of `width` >= 1 columns; lo <= hi always holds.
struct LaneRange {
  int lo;
  int hi;
};

[[nodiscard]] inline LaneRange in_row_lanes(std::int64_t col0, std::int64_t width) {
  const auto clamp_lanes = [](std::int64_t v) {
    return static_cast<int>(v < 0 ? 0 : (v > kSimdLanes ? kSimdLanes : v));
  };
  return {clamp_lanes(-col0), clamp_lanes(width - col0)};
}

namespace ref {

// Integer lane arithmetic wraps modulo 2^N, exactly like the vector
// intrinsics of every backend. Computing it through the unsigned type keeps
// the reference loops free of signed-overflow UB (the parity suite drives
// them with full-range lanes under UBSan) without changing a single result
// bit. Floating-point passes through untouched.
template <typename T>
[[nodiscard]] inline T wrap_add(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
  } else {
    return a + b;
  }
}

template <typename T>
[[nodiscard]] inline T wrap_sub(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
  } else {
    return a - b;
  }
}

template <typename T>
[[nodiscard]] inline T wrap_mul(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
  } else {
    return a * b;
  }
}

template <typename T>
[[nodiscard]] inline T wrap_mad(T a, T b, T c) {
  return wrap_add(wrap_mul(a, b), c);
}

template <typename T>
inline void splat(T* d, T v) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = v;
}

/// Repeated addition, matching the historical Vec::iota semantics exactly
/// (for floating T, base + l*step would round differently).
template <typename T>
inline void iota(T* d, T base, T step) {
  T v = base;
  for (int l = 0; l < kSimdLanes; ++l, v = wrap_add(v, step)) d[l] = v;
}

template <typename T>
inline void add(T* d, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_add(a[l], b[l]);
}

template <typename T>
inline void add_s(T* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_add(a[l], b);
}

template <typename T>
inline void sub(T* d, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_sub(a[l], b[l]);
}

template <typename T>
inline void mul(T* d, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mul(a[l], b[l]);
}

template <typename T>
inline void mul_s(T* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mul(a[l], b);
}

/// d = a*b + c, two roundings (see FP contract note in the header comment).
template <typename T>
inline void mad(T* d, const T* a, const T* b, const T* c) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mad(a[l], b[l], c[l]);
}

template <typename T>
inline void mad_s(T* d, const T* a, T b, const T* c) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mad(a[l], b, c[l]);
}

template <typename T>
inline void affine(T* d, const T* x, T scale, T offset) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mad(x[l], scale, offset);
}

template <typename T>
inline void clamp(T* d, const T* x, T lo, T hi) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) {
    T v = x[l];
    v = v < lo ? lo : v;
    v = v > hi ? hi : v;
    d[l] = v;
  }
}

template <typename T>
inline void ge_s(int* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = a[l] >= b ? 1 : 0;
}

template <typename T>
inline void lt_s(int* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = a[l] < b ? 1 : 0;
}

inline void logical_and(int* d, const int* a, const int* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = (a[l] != 0 && b[l] != 0) ? 1 : 0;
}

template <typename T>
inline void select(T* d, const int* pred, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = pred[l] != 0 ? a[l] : b[l];
}

// Shuffles follow CUDA __shfl_*_sync semantics with a full mask: a lane
// whose source falls outside the warp keeps its own value. Callers normalize
// delta into [1, 32] and the butterfly mask into [0, 31] before dispatching.

/// __shfl_up: lane l receives lane l-delta; lanes < delta keep their own.
template <typename T>
inline void shift_up(T* d, const T* a, int delta) {
  for (int l = 0; l < kSimdLanes; ++l) d[l] = l >= delta ? a[l - delta] : a[l];
}

/// __shfl_down: lane l receives lane l+delta; top delta lanes keep their own.
template <typename T>
inline void shift_down(T* d, const T* a, int delta) {
  for (int l = 0; l < kSimdLanes; ++l) {
    d[l] = l + delta < kSimdLanes ? a[l + delta] : a[l];
  }
}

/// __shfl_xor butterfly; lane_mask must already be masked into [0, 31].
template <typename T>
inline void butterfly(T* d, const T* a, int lane_mask) {
  for (int l = 0; l < kSimdLanes; ++l) d[l] = a[l ^ lane_mask];
}

// Lane-range moves between a warp and one row of memory (the register-cache
// fill and the valid-row store). Only lanes whose element lies inside the
// row ever form a pointer into it, so edge warps never compute an address
// before the row's start or past its end.

/// Lane l reads row[clamp(col0 + l, 0, width - 1)] (width >= 1): the
/// edge-replicating fill. The in-row lanes are one contiguous copy.
template <typename T>
inline void load_clamped(T* d, const T* row, std::int64_t col0, std::int64_t width) {
  const LaneRange r = in_row_lanes(col0, width);
  if (r.lo == 0 && r.hi == kSimdLanes) {  // interior: a fixed-size copy
    std::memcpy(d, row + col0, kSimdLanes * sizeof(T));
    return;
  }
  for (int l = 0; l < r.lo; ++l) d[l] = row[0];
  if (r.hi > r.lo) {
    std::memcpy(d + r.lo, row + (col0 + r.lo), static_cast<std::size_t>(r.hi - r.lo) * sizeof(T));
  }
  for (int l = r.hi; l < kSimdLanes; ++l) d[l] = row[width - 1];
}

/// row[x0 + l] = v[l] for lanes l in [lo, hi); the caller keeps those
/// columns inside the row. An empty range writes nothing.
template <typename T>
inline void store_lanes(T* row, std::int64_t x0, const T* v, int lo, int hi) {
  if (hi > lo) {
    std::memcpy(row + (x0 + lo), v + lo, static_cast<std::size_t>(hi - lo) * sizeof(T));
  }
}

/// d[l] = a[l] + row[max(l - shift, 0)] for shift >= 0: adds the 32-lane
/// row shifted up `shift` lanes, the lanes below the shift repeating row[0].
template <typename T>
inline void add_shifted(T* d, const T* a, const T* row, int shift) {
  const int s = shift < kSimdLanes ? shift : kSimdLanes;
  for (int l = 0; l < s; ++l) d[l] = wrap_add(a[l], row[0]);
  for (int l = s; l < kSimdLanes; ++l) d[l] = wrap_add(a[l], row[l - s]);
}

/// True when every predicate lane is active — the common case of masked
/// loads/stores issued by interior (non-border) warps.
[[nodiscard]] inline bool all_nonzero(const int* p) {
  bool all = true;
  for (int l = 0; l < kSimdLanes; ++l) all &= p[l] != 0;
  return all;
}

/// True when idx is the unit-stride ramp idx[0], idx[0]+1, ... — the fully
/// coalesced pattern almost every SSAM access produces.
template <typename T>
[[nodiscard]] inline bool unit_stride(const T* idx) {
  const T i0 = idx[0];
  bool contiguous = true;
  // Loop-carried reduction: no `omp simd` (it would need a reduction
  // clause); the fixed-trip loop auto-vectorizes fine regardless.
  for (int l = 1; l < kSimdLanes; ++l) {
    contiguous &= idx[l] == wrap_add(i0, static_cast<T>(l));
  }
  return contiguous;
}

}  // namespace ref

template <typename T>
struct LaneOps;

/// Reference ops bundle. `LaneOps<T>` (simd.hpp) derives from this; vector
/// backends specialize `LaneOps` and shadow the statics they accelerate, so
/// any element type or operation a backend does not cover falls back here.
template <typename T>
struct RefOps {
  static constexpr bool kVectorized = false;

  static void splat(T* d, T v) { ref::splat(d, v); }
  static void iota(T* d, T base, T step) { ref::iota(d, base, step); }
  static void add(T* d, const T* a, const T* b) { ref::add(d, a, b); }
  static void add_s(T* d, const T* a, T b) { ref::add_s(d, a, b); }
  static void sub(T* d, const T* a, const T* b) { ref::sub(d, a, b); }
  static void mul(T* d, const T* a, const T* b) { ref::mul(d, a, b); }
  static void mul_s(T* d, const T* a, T b) { ref::mul_s(d, a, b); }
  static void mad(T* d, const T* a, const T* b, const T* c) { ref::mad(d, a, b, c); }
  static void mad_s(T* d, const T* a, T b, const T* c) { ref::mad_s(d, a, b, c); }
  static void affine(T* d, const T* x, T scale, T offset) { ref::affine(d, x, scale, offset); }
  static void clamp(T* d, const T* x, T lo, T hi) { ref::clamp(d, x, lo, hi); }
  static void ge_s(int* d, const T* a, T b) { ref::ge_s(d, a, b); }
  static void lt_s(int* d, const T* a, T b) { ref::lt_s(d, a, b); }
  static void logical_and(int* d, const int* a, const int* b) { ref::logical_and(d, a, b); }
  static void select(T* d, const int* pred, const T* a, const T* b) {
    ref::select(d, pred, a, b);
  }
  static void shift_up(T* d, const T* a, int delta) { ref::shift_up(d, a, delta); }
  static void shift_down(T* d, const T* a, int delta) { ref::shift_down(d, a, delta); }
  static void butterfly(T* d, const T* a, int lane_mask) { ref::butterfly(d, a, lane_mask); }
  static bool unit_stride(const T* idx) { return ref::unit_stride(idx); }
  static bool all_nonzero(const int* p) { return ref::all_nonzero(p); }
  static void load_clamped(T* d, const T* row, std::int64_t col0, std::int64_t width) {
    ref::load_clamped(d, row, col0, width);
  }
  static void store_lanes(T* row, std::int64_t x0, const T* v, int lo, int hi) {
    ref::store_lanes(row, x0, v, lo, hi);
  }
  static void add_shifted(T* d, const T* a, const T* row, int shift) {
    ref::add_shifted(d, a, row, shift);
  }

  /// The systolic sweep of `count` output rows as the per-op lane loop
  /// defines it, run through the active backend's own primitives: each
  /// row's partial sum starts at zero; every column after the first shifts
  /// it up one lane (shift_up, delta 1), then each of the column's taps
  /// mads into it (mad_s: row lanes * coefficient + sum). Row i of `rows` /
  /// `out` starts `row_stride` / `out_stride` bytes after row i - 1.
  /// Backends that can keep partial sums in registers shadow this.
  static void systolic_sweep(T* out, std::size_t out_stride, const T* rows,
                             std::size_t row_stride, int count, SweepPass<T> pass) {
    using Ops = LaneOps<T>;
    for (int i = 0; i < count; ++i) {
      T sum[kSimdLanes];
      T next[kSimdLanes];
      Ops::splat(sum, T{});
      std::int32_t t = pass.first;
      for (int c = 0; c < pass.columns; ++c) {
        if (c > 0) {
          Ops::shift_up(next, sum, 1);
          std::memcpy(sum, next, sizeof(sum));
        }
        for (; t < pass.col_end[c]; ++t) {
          const SweepTap<T>& tap = pass.taps[t];
          Ops::mad_s(next, byte_offset(rows, static_cast<std::size_t>(i + tap.row) * row_stride),
                     tap.coeff, sum);
          std::memcpy(sum, next, sizeof(sum));
        }
      }
      std::memcpy(byte_offset(out, static_cast<std::size_t>(i) * out_stride), sum, sizeof(sum));
    }
  }
};

/// The customization point the lane engine (gpusim/vec.hpp) dispatches
/// through. The primary template is the portable-scalar backend; each vector
/// backend header (avx512.hpp, avx2.hpp, ...) specializes it for the element
/// types it accelerates. Selection happens at compile time in simd.hpp.
template <typename T>
struct LaneOps : RefOps<T> {};

}  // namespace ssam::sim::simd
