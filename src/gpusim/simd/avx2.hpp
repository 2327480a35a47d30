// AVX2 backend of the 32-lane engine: four 256-bit registers per warp value
// (float / int32) and eight-lane chunks of int64 indices.
//
// AVX2 has no two-source cross-register permute, but `vpermd`
// (_mm256_permutevar8x32_epi32) is a full 8-lane variable permute, so every
// systolic shuffle decomposes into per-chunk rotations plus a lane blend:
// a shift by delta = 8k + w sources output chunk c from chunks c-k and
// c-k-1 (both rotated by the same w) with a position mask picking between
// them — two vpermd + one vpblendvb per chunk, no memory round-trip. The
// butterfly is a single vpermd per chunk (chunk c ^ (mask>>3), indices
// XOR-ed with mask&7).
//
// Arithmetic matches the scalar reference bit-for-bit: mad is unfused
// (mul, then add; see the -ffp-contract=off note in scalar.hpp), and float
// clamp is compare+blend so NaN lanes resolve like the reference ternaries.
// 64-bit lane-index multiplies use the classic mul_epu32 three-product
// decomposition, which wraps exactly like scalar 64-bit multiplication.
#pragma once

#if !defined(__AVX2__)
#error "simd/avx2.hpp requires -mavx2"
#endif

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "gpusim/simd/scalar.hpp"

namespace ssam::sim::simd {

namespace avx2 {

[[nodiscard]] inline __m256i ramp8() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }

[[nodiscard]] inline __m256i load_chunk(const void* a, int c) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(static_cast<const char*>(a) + 32 * c));
}

inline void store_chunk(void* d, int c, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(static_cast<char*>(d) + 32 * c), v);
}

/// shfl_up on 4-byte lanes: output chunk c takes its top lanes from chunk
/// c-k rotated by `within` and its bottom `within` lanes from chunk c-k-1
/// (same rotation); lanes below the warp edge keep their own value.
inline void shift_up32(void* d, const void* a, int delta) {
  const int k = delta >> 3;
  const int within = delta & 7;
  // vpermd only reads the low 3 bits of each index, so the plain difference
  // rotates: (j - within) mod 8.
  const __m256i rot = _mm256_sub_epi32(ramp8(), _mm256_set1_epi32(within));
  const __m256i take_rot = _mm256_cmpgt_epi32(ramp8(), _mm256_set1_epi32(within - 1));
  __m256i out[4];
  for (int c = 0; c < 4; ++c) {
    if (c < k) {
      out[c] = load_chunk(a, c);  // fully below the edge: keep own lanes
      continue;
    }
    const __m256i rot_a = _mm256_permutevar8x32_epi32(load_chunk(a, c - k), rot);
    const __m256i low =
        c == k ? load_chunk(a, c)  // partial edge: low lanes keep their own
               : _mm256_permutevar8x32_epi32(load_chunk(a, c - k - 1), rot);
    out[c] = _mm256_blendv_epi8(low, rot_a, take_rot);
  }
  for (int c = 0; c < 4; ++c) store_chunk(d, c, out[c]);
}

/// shfl_down mirror image: chunk c sources chunks c+k and c+k+1.
inline void shift_down32(void* d, const void* a, int delta) {
  const int k = delta >> 3;
  const int within = delta & 7;
  const __m256i rot = _mm256_add_epi32(ramp8(), _mm256_set1_epi32(within));
  const __m256i take_rot = _mm256_cmpgt_epi32(_mm256_set1_epi32(8 - within), ramp8());
  __m256i out[4];
  for (int c = 0; c < 4; ++c) {
    if (c + k > 3) {
      out[c] = load_chunk(a, c);  // fully above the edge: keep own lanes
      continue;
    }
    const __m256i rot_a = _mm256_permutevar8x32_epi32(load_chunk(a, c + k), rot);
    const __m256i high = c + k + 1 > 3
                             ? load_chunk(a, c)  // partial edge: keep own
                             : _mm256_permutevar8x32_epi32(load_chunk(a, c + k + 1), rot);
    out[c] = _mm256_blendv_epi8(high, rot_a, take_rot);
  }
  for (int c = 0; c < 4; ++c) store_chunk(d, c, out[c]);
}

/// shfl_xor: one vpermd per chunk. lane_mask is in [0, 31].
inline void butterfly32(void* d, const void* a, int lane_mask) {
  const __m256i idx = _mm256_xor_si256(ramp8(), _mm256_set1_epi32(lane_mask & 7));
  const int chunk_xor = lane_mask >> 3;
  __m256i out[4];
  for (int c = 0; c < 4; ++c) {
    out[c] = _mm256_permutevar8x32_epi32(load_chunk(a, c ^ chunk_xor), idx);
  }
  for (int c = 0; c < 4; ++c) store_chunk(d, c, out[c]);
}

/// Lanes of chunk c (warp lanes 8c .. 8c + 7) as an int32 ramp.
[[nodiscard]] inline __m256i chunk_lanes(int c) {
  return _mm256_add_epi32(ramp8(), _mm256_set1_epi32(8 * c));
}

/// All-ones in the lanes of chunk c that fall in [lo, hi).
[[nodiscard]] inline __m256i chunk_mask(int lo, int hi, int c) {
  const __m256i l = chunk_lanes(c);
  return _mm256_andnot_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(lo), l),
                             _mm256_cmpgt_epi32(_mm256_set1_epi32(hi), l));
}

/// Exact wrapping 64x64 -> low-64 multiply from 32-bit products.
[[nodiscard]] inline __m256i mullo64(__m256i a, __m256i b) {
  const __m256i b_swap = _mm256_shuffle_epi32(b, 0xB1);       // b_hi | b_lo swapped
  const __m256i cross = _mm256_mullo_epi32(a, b_swap);        // a_lo*b_hi, a_hi*b_lo
  const __m256i cross_sum = _mm256_hadd_epi32(cross, _mm256_setzero_si256());
  const __m256i cross_hi = _mm256_shuffle_epi32(cross_sum, 0x73);  // into high dwords
  const __m256i prod_ll = _mm256_mul_epu32(a, b);             // a_lo*b_lo, full 64
  return _mm256_add_epi64(prod_ll, cross_hi);
}

/// Systolic sweep of G rows with every partial sum held in four ymm
/// registers for the whole column walk. The shfl_up by one lane rotates
/// each chunk up one lane (vpermps) and blends in lane 7 of the chunk below
/// (lane 0 of chunk 0 keeps its own value). mad stays mul-then-add with
/// the row lanes as the first factor, operand for operand like mad_s.
template <int G>
inline void sweep_rows(float* out, std::size_t out_stride, const float* rows,
                       std::size_t row_stride, SweepPass<float> pass) {
  const __m256i rot_up = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  __m256 acc[G][4];
  for (int g = 0; g < G; ++g) {
    for (int c = 0; c < 4; ++c) acc[g][c] = _mm256_setzero_ps();
  }
  std::int32_t t = pass.first;
  for (int col = 0; col < pass.columns; ++col) {
    if (col > 0) {
      for (int g = 0; g < G; ++g) {
        __m256 below = acc[g][0];  // chunk 0's lane 0 keeps its own value
        for (int c = 0; c < 4; ++c) {
          const __m256 rot = _mm256_permutevar8x32_ps(acc[g][c], rot_up);
          acc[g][c] = _mm256_blend_ps(rot, below, 0x01);
          below = rot;
        }
      }
    }
    for (; t < pass.col_end[col]; ++t) {
      const SweepTap<float>& tap = pass.taps[t];
      const __m256 cv = _mm256_set1_ps(tap.coeff);
      for (int g = 0; g < G; ++g) {
        const float* rp =
            byte_offset(rows, static_cast<std::size_t>(tap.row + g) * row_stride);
        for (int c = 0; c < 4; ++c) {
          acc[g][c] = _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(rp + 8 * c), cv), acc[g][c]);
        }
      }
    }
  }
  for (int g = 0; g < G; ++g) {
    float* op = byte_offset(out, static_cast<std::size_t>(g) * out_stride);
    for (int c = 0; c < 4; ++c) _mm256_storeu_ps(op + 8 * c, acc[g][c]);
  }
}

}  // namespace avx2

template <>
struct LaneOps<float> : RefOps<float> {
  static constexpr bool kVectorized = true;

  static void splat(float* d, float v) {
    const __m256 s = _mm256_set1_ps(v);
    for (int c = 0; c < 4; ++c) _mm256_storeu_ps(d + 8 * c, s);
  }

  static void add(float* d, const float* a, const float* b) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_add_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c)));
    }
  }

  static void add_s(float* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c, _mm256_add_ps(_mm256_loadu_ps(a + 8 * c), bv));
    }
  }

  static void sub(float* d, const float* a, const float* b) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_sub_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c)));
    }
  }

  static void mul(float* d, const float* a, const float* b) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_mul_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c)));
    }
  }

  static void mul_s(float* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c, _mm256_mul_ps(_mm256_loadu_ps(a + 8 * c), bv));
    }
  }

  // Unfused on purpose (see scalar.hpp): no _mm256_fmadd_ps here.
  static void mad(float* d, const float* a, const float* b, const float* c3) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a + 8 * c),
                                                   _mm256_loadu_ps(b + 8 * c)),
                                     _mm256_loadu_ps(c3 + 8 * c)));
    }
  }

  static void mad_s(float* d, const float* a, float b, const float* c3) {
    const __m256 bv = _mm256_set1_ps(b);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c, _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a + 8 * c), bv),
                                                _mm256_loadu_ps(c3 + 8 * c)));
    }
  }

  static void affine(float* d, const float* x, float scale, float offset) {
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 ov = _mm256_set1_ps(offset);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + 8 * c), sv), ov));
    }
  }

  static void clamp(float* d, const float* x, float lo, float hi) {
    const __m256 lov = _mm256_set1_ps(lo);
    const __m256 hiv = _mm256_set1_ps(hi);
    for (int c = 0; c < 4; ++c) {
      __m256 v = _mm256_loadu_ps(x + 8 * c);
      v = _mm256_blendv_ps(v, lov, _mm256_cmp_ps(v, lov, _CMP_LT_OQ));
      v = _mm256_blendv_ps(v, hiv, _mm256_cmp_ps(v, hiv, _CMP_GT_OQ));
      _mm256_storeu_ps(d + 8 * c, v);
    }
  }

  static void ge_s(int* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i m = _mm256_castps_si256(_mm256_cmp_ps(_mm256_loadu_ps(a + 8 * c), bv,
                                                          _CMP_GE_OQ));
      avx2::store_chunk(d, c, _mm256_and_si256(m, one));
    }
  }

  static void lt_s(int* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i m = _mm256_castps_si256(_mm256_cmp_ps(_mm256_loadu_ps(a + 8 * c), bv,
                                                          _CMP_LT_OQ));
      avx2::store_chunk(d, c, _mm256_and_si256(m, one));
    }
  }

  static void select(float* d, const int* pred, const float* a, const float* b) {
    const __m256i zero = _mm256_setzero_si256();
    for (int c = 0; c < 4; ++c) {
      const __m256i p_zero = _mm256_cmpeq_epi32(avx2::load_chunk(pred, c), zero);
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_blendv_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c),
                                        _mm256_castsi256_ps(p_zero)));
    }
  }

  static void shift_up(float* d, const float* a, int delta) { avx2::shift_up32(d, a, delta); }
  static void shift_down(float* d, const float* a, int delta) {
    avx2::shift_down32(d, a, delta);
  }
  // Two rows per group: eight add chains in flight, within the 16 ymm
  // registers.
  static void systolic_sweep(float* out, std::size_t out_stride, const float* rows,
                             std::size_t row_stride, int count, SweepPass<float> pass) {
    for_row_groups<2>(count, [&](int i, auto g) {
      avx2::sweep_rows<decltype(g)::value>(
          byte_offset(out, static_cast<std::size_t>(i) * out_stride), out_stride,
          byte_offset(rows, static_cast<std::size_t>(i) * row_stride), row_stride, pass);
    });
  }

  static void butterfly(float* d, const float* a, int lane_mask) {
    avx2::butterfly32(d, a, lane_mask);
  }

  // Interior warps are four plain loads. Edge warps maskload their in-row
  // lanes starting at the first in-row element, move them up to lane lo
  // with the chunk-rotate shift when the row starts inside the warp, and
  // blend the replicated edge values into the other lanes.
  static void load_clamped(float* d, const float* row, std::int64_t col0, std::int64_t width) {
    const LaneRange r = in_row_lanes(col0, width);
    if (r.lo == 0 && r.hi == kSimdLanes) {
      for (int c = 0; c < 4; ++c) _mm256_storeu_ps(d + 8 * c, _mm256_loadu_ps(row + col0 + 8 * c));
      return;
    }
    alignas(32) float in_row[kSimdLanes];
    const int n = r.hi - r.lo;
    for (int c = 0; c < 4; ++c) {
      _mm256_store_ps(in_row + 8 * c,
                      8 * c < n ? _mm256_maskload_ps(row + (col0 + r.lo) + 8 * c,
                                                     avx2::chunk_mask(0, n - 8 * c, 0))
                                : _mm256_setzero_ps());
    }
    if (n > 0 && r.lo > 0) avx2::shift_up32(in_row, in_row, r.lo);
    const __m256 first = _mm256_set1_ps(row[0]);
    const __m256 last = _mm256_set1_ps(row[width - 1]);
    for (int c = 0; c < 4; ++c) {
      const __m256 edge = _mm256_blendv_ps(
          last, first, _mm256_castsi256_ps(avx2::chunk_mask(0, r.lo, c)));
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_blendv_ps(edge, _mm256_load_ps(in_row + 8 * c),
                                        _mm256_castsi256_ps(avx2::chunk_mask(r.lo, r.hi, c))));
    }
  }

  // Masked stores in place when lane 0 maps inside the row; when the row
  // starts inside the warp, lane lo first shifts down to lane 0 so the
  // stores start at the first in-row column.
  static void store_lanes(float* row, std::int64_t x0, const float* v, int lo, int hi) {
    if (hi <= lo) return;
    if (x0 >= 0) {
      for (int c = 0; c < 4; ++c) {
        if (8 * c < hi && 8 * c + 8 > lo) {
          _mm256_maskstore_ps(row + x0 + 8 * c, avx2::chunk_mask(lo, hi, c),
                              _mm256_loadu_ps(v + 8 * c));
        }
      }
      return;
    }
    alignas(32) float shifted[kSimdLanes];
    avx2::shift_down32(shifted, v, lo);
    const int n = hi - lo;
    float* dst = row + (x0 + lo);
    for (int c = 0; 8 * c < n; ++c) {
      _mm256_maskstore_ps(dst + 8 * c, avx2::chunk_mask(0, n - 8 * c, 0),
                          _mm256_load_ps(shifted + 8 * c));
    }
  }

  static void add_shifted(float* d, const float* a, const float* row, int shift) {
    alignas(32) float shifted[kSimdLanes];
    const float* src = row;
    if (shift > 0) {
      avx2::shift_up32(shifted, row, shift < kSimdLanes ? shift : kSimdLanes);
      src = shifted;
    }
    const __m256 first = _mm256_set1_ps(row[0]);
    for (int c = 0; c < 4; ++c) {
      const __m256 below = _mm256_castsi256_ps(avx2::chunk_mask(0, shift, c));
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_add_ps(_mm256_loadu_ps(a + 8 * c),
                                     _mm256_blendv_ps(_mm256_loadu_ps(src + 8 * c), first, below)));
    }
  }
};

template <>
struct LaneOps<std::int32_t> : RefOps<std::int32_t> {
  static constexpr bool kVectorized = true;
  using T = std::int32_t;

  static void splat(T* d, T v) {
    const __m256i s = _mm256_set1_epi32(v);
    for (int c = 0; c < 4; ++c) avx2::store_chunk(d, c, s);
  }

  static void iota(T* d, T base, T step) {
    const __m256i sv = _mm256_set1_epi32(step);
    const __m256i bv = _mm256_set1_epi32(base);
    __m256i r = avx2::ramp8();
    const __m256i eight = _mm256_set1_epi32(8);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(_mm256_mullo_epi32(r, sv), bv));
      r = _mm256_add_epi32(r, eight);
    }
  }

  static void add(T* d, const T* a, const T* b) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)));
    }
  }

  static void add_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(avx2::load_chunk(a, c), bv));
    }
  }

  static void sub(T* d, const T* a, const T* b) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_sub_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)));
    }
  }

  static void mul(T* d, const T* a, const T* b) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c,
                        _mm256_mullo_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)));
    }
  }

  static void mul_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_mullo_epi32(avx2::load_chunk(a, c), bv));
    }
  }

  static void mad(T* d, const T* a, const T* b, const T* c3) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(
          d, c,
          _mm256_add_epi32(_mm256_mullo_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)),
                           avx2::load_chunk(c3, c)));
    }
  }

  static void mad_s(T* d, const T* a, T b, const T* c3) {
    const __m256i bv = _mm256_set1_epi32(b);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(_mm256_mullo_epi32(avx2::load_chunk(a, c), bv),
                                               avx2::load_chunk(c3, c)));
    }
  }

  static void affine(T* d, const T* x, T scale, T offset) {
    const __m256i sv = _mm256_set1_epi32(scale);
    const __m256i ov = _mm256_set1_epi32(offset);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c,
                        _mm256_add_epi32(_mm256_mullo_epi32(avx2::load_chunk(x, c), sv), ov));
    }
  }

  static void clamp(T* d, const T* x, T lo, T hi) {
    const __m256i lov = _mm256_set1_epi32(lo);
    const __m256i hiv = _mm256_set1_epi32(hi);
    for (int c = 0; c < 4; ++c) {
      __m256i v = avx2::load_chunk(x, c);
      v = _mm256_min_epi32(_mm256_max_epi32(v, lov), hiv);
      avx2::store_chunk(d, c, v);
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      // a >= b  <=>  !(b > a); the compare mask is 0/-1 so (mask + 1) flips it.
      const __m256i lt = _mm256_cmpgt_epi32(bv, avx2::load_chunk(a, c));
      avx2::store_chunk(d, c, _mm256_add_epi32(lt, one));
    }
  }

  static void lt_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i lt = _mm256_cmpgt_epi32(bv, avx2::load_chunk(a, c));
      avx2::store_chunk(d, c, _mm256_and_si256(lt, one));
    }
  }

  static void logical_and(int* d, const int* a, const int* b) {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i either_zero =
          _mm256_or_si256(_mm256_cmpeq_epi32(avx2::load_chunk(a, c), zero),
                          _mm256_cmpeq_epi32(avx2::load_chunk(b, c), zero));
      avx2::store_chunk(d, c, _mm256_andnot_si256(either_zero, one));
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    const __m256i zero = _mm256_setzero_si256();
    for (int c = 0; c < 4; ++c) {
      const __m256i p_zero = _mm256_cmpeq_epi32(avx2::load_chunk(pred, c), zero);
      avx2::store_chunk(
          d, c, _mm256_blendv_epi8(avx2::load_chunk(a, c), avx2::load_chunk(b, c), p_zero));
    }
  }

  static void shift_up(T* d, const T* a, int delta) { avx2::shift_up32(d, a, delta); }
  static void shift_down(T* d, const T* a, int delta) { avx2::shift_down32(d, a, delta); }
  static void butterfly(T* d, const T* a, int lane_mask) {
    avx2::butterfly32(d, a, lane_mask);
  }

  static bool unit_stride(const T* idx) {
    const __m256i i0 = _mm256_set1_epi32(idx[0]);
    __m256i r = avx2::ramp8();
    const __m256i eight = _mm256_set1_epi32(8);
    __m256i all = _mm256_set1_epi32(-1);
    for (int c = 0; c < 4; ++c) {
      all = _mm256_and_si256(
          all, _mm256_cmpeq_epi32(avx2::load_chunk(idx, c), _mm256_add_epi32(i0, r)));
      r = _mm256_add_epi32(r, eight);
    }
    return _mm256_movemask_epi8(all) == -1;
  }

  static bool all_nonzero(const int* p) {
    const __m256i zero = _mm256_setzero_si256();
    __m256i any_zero = zero;
    for (int c = 0; c < 4; ++c) {
      any_zero = _mm256_or_si256(any_zero, _mm256_cmpeq_epi32(avx2::load_chunk(p, c), zero));
    }
    return _mm256_movemask_epi8(any_zero) == 0;
  }
};

/// 64-bit lane indices: four lanes per register, eight registers. The
/// addressing ops (iota, affine, clamp, bounds compares, unit-stride) are
/// what shows up on kernel hot paths; shuffles of 8-byte lanes stay on the
/// reference path (they do not occur in the kernels — shuffles move values,
/// which are 4-byte).
template <>
struct LaneOps<std::int64_t> : RefOps<std::int64_t> {
  static constexpr bool kVectorized = true;
  using T = std::int64_t;

  [[nodiscard]] static __m256i ramp4(int q) {  // lanes 4q .. 4q+3
    const std::int64_t b = 4 * q;
    return _mm256_setr_epi64x(b, b + 1, b + 2, b + 3);
  }

  [[nodiscard]] static __m256i load4(const T* p, int q) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * q));
  }

  static void store4(T* p, int q, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 4 * q), v);
  }

  static void splat(T* d, T v) {
    const __m256i s = _mm256_set1_epi64x(v);
    for (int q = 0; q < 8; ++q) store4(d, q, s);
  }

  static void iota(T* d, T base, T step) {
    const __m256i sv = _mm256_set1_epi64x(step);
    const __m256i bv = _mm256_set1_epi64x(base);
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(ramp4(q), sv), bv));
    }
  }

  static void add(T* d, const T* a, const T* b) {
    for (int q = 0; q < 8; ++q) store4(d, q, _mm256_add_epi64(load4(a, q), load4(b, q)));
  }

  static void add_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) store4(d, q, _mm256_add_epi64(load4(a, q), bv));
  }

  static void sub(T* d, const T* a, const T* b) {
    for (int q = 0; q < 8; ++q) store4(d, q, _mm256_sub_epi64(load4(a, q), load4(b, q)));
  }

  static void mul(T* d, const T* a, const T* b) {
    for (int q = 0; q < 8; ++q) store4(d, q, avx2::mullo64(load4(a, q), load4(b, q)));
  }

  static void mul_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) store4(d, q, avx2::mullo64(load4(a, q), bv));
  }

  static void mad(T* d, const T* a, const T* b, const T* c) {
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(load4(a, q), load4(b, q)), load4(c, q)));
    }
  }

  static void mad_s(T* d, const T* a, T b, const T* c) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(load4(a, q), bv), load4(c, q)));
    }
  }

  static void affine(T* d, const T* x, T scale, T offset) {
    const __m256i sv = _mm256_set1_epi64x(scale);
    const __m256i ov = _mm256_set1_epi64x(offset);
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(load4(x, q), sv), ov));
    }
  }

  static void clamp(T* d, const T* x, T lo, T hi) {
    const __m256i lov = _mm256_set1_epi64x(lo);
    const __m256i hiv = _mm256_set1_epi64x(hi);
    for (int q = 0; q < 8; ++q) {
      __m256i v = load4(x, q);
      v = _mm256_blendv_epi8(v, lov, _mm256_cmpgt_epi64(lov, v));  // v < lo
      v = _mm256_blendv_epi8(v, hiv, _mm256_cmpgt_epi64(v, hiv));  // v > hi
      store4(d, q, v);
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) {
      const int lt_bits = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, load4(a, q))));
      for (int i = 0; i < 4; ++i) d[4 * q + i] = ((lt_bits >> i) & 1) ^ 1;
    }
  }

  static void lt_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) {
      const int lt_bits = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, load4(a, q))));
      for (int i = 0; i < 4; ++i) d[4 * q + i] = (lt_bits >> i) & 1;
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    const __m128i zero = _mm_setzero_si128();
    for (int q = 0; q < 8; ++q) {
      const __m128i p = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pred + 4 * q));
      const __m256i p_zero64 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(p, zero));
      store4(d, q, _mm256_blendv_epi8(load4(a, q), load4(b, q), p_zero64));
    }
  }

  static bool unit_stride(const T* idx) {
    const __m256i i0 = _mm256_set1_epi64x(idx[0]);
    __m256i all = _mm256_set1_epi64x(-1);
    for (int q = 0; q < 8; ++q) {
      all = _mm256_and_si256(all,
                             _mm256_cmpeq_epi64(load4(idx, q), _mm256_add_epi64(i0, ramp4(q))));
    }
    return _mm256_movemask_epi8(all) == -1;
  }
};

inline constexpr const char* kBackendName = "avx2";

}  // namespace ssam::sim::simd
