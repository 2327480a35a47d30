// WarpContext: the device-code API of the simulated GPU.
//
// Kernels are ordinary C++ functions that manipulate `Reg<T>` values through
// a WarpContext. Every operation has
//   * a functional effect on all 32 lanes (warp-synchronous semantics), and
//   * in timing mode, a scoreboard effect (issue slot + operand-ready
//     dependency + result latency) and counter updates.
// Shuffle semantics follow CUDA's __shfl_*_sync with a full mask: lanes whose
// source falls outside the warp keep their own value.
//
// The execution mode is a compile-time template parameter: the functional
// specialization `WarpContextT<ExecMode::kFunctional>` carries no scoreboard,
// no counters and no memory-system pointer, and every operation compiles to
// the bare `Vec<T>` lane primitive — no `if (timing)` residue on the hot
// path. The timing specialization keeps the exact op-for-op scoreboard and
// counter behaviour.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/types.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/memsim.hpp"
#include "gpusim/scoreboard.hpp"
#include "gpusim/shared_mem.hpp"
#include "gpusim/tap_schedule.hpp"
#include "gpusim/vec.hpp"

namespace ssam::sim {

/// Execution mode of a kernel launch (compile-time tag for the contexts).
///  * Functional — full-grid execution, host-parallel, zero timing state.
///  * Timing — sampled blocks run sequentially with caches and scoreboards.
enum class ExecMode { kFunctional, kTiming };

namespace detail {
template <typename T>
inline constexpr bool is_fp = std::is_floating_point_v<T>;

/// Placeholder for members compiled out of the functional specialization.
struct Nothing {};
}  // namespace detail

template <ExecMode M>
class WarpContextT {
 public:
  static constexpr bool kTimed = (M == ExecMode::kTiming);

  WarpContextT(const ArchSpec& arch, MemorySystem* mem, int warp_id)
      : arch_(&arch), warp_id_(warp_id) {
    if constexpr (kTimed) {
      mem_ = mem;
    } else {
      (void)mem;
    }
  }

  WarpContextT(const WarpContextT&) = delete;
  WarpContextT& operator=(const WarpContextT&) = delete;
  WarpContextT(WarpContextT&&) = default;
  WarpContextT& operator=(WarpContextT&&) = default;

  /// Re-targets this context at (possibly) another architecture. Used by the
  /// pooled functional contexts that persist across launches on the worker
  /// pool; the functional specialization holds no other launch state.
  void rebind(const ArchSpec& arch) { arch_ = &arch; }

  [[nodiscard]] int warp_id() const { return warp_id_; }
  [[nodiscard]] const ArchSpec& arch() const { return *arch_; }
  [[nodiscard]] static constexpr bool timing() { return kTimed; }
  [[nodiscard]] Scoreboard& scoreboard() requires kTimed { return sb_; }
  [[nodiscard]] const Scoreboard& scoreboard() const requires kTimed { return sb_; }

  /// Lane index vector [0..31]; free (a hardware special register).
  [[nodiscard]] Reg<int> lane_id() const {
    Reg<int> r;
    r.v = Vec<int>::iota(0, 1);
    r.ready = 0;
    return r;
  }

  /// Immediate / kernel-argument value: available at cycle 0, no cost.
  template <typename T>
  [[nodiscard]] Reg<T> uniform(T v) const {
    Reg<T> r;
    r.v = Vec<T>::splat(v);
    r.ready = 0;
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> iota(T base, T step) const {
    Reg<T> r;
    r.v = Vec<T>::iota(base, step);
    r.ready = 0;
    return r;
  }

  // ---------------------------------------------------------------- compute

  /// d = a * b + c (the MAD of Listing 1/2).
  template <typename T>
  [[nodiscard]] Reg<T> mad(const Reg<T>& a, const Reg<T>& b, const Reg<T>& c) {
    Reg<T> r;
    r.v = Vec<T>::mad(a.v, b.v, c.v);
    if constexpr (kTimed) time_arith<T>(r, Scoreboard::ready_max({a.ready, b.ready, c.ready}));
    return r;
  }

  /// MAD with an immediate coefficient (stencil coefficients as arguments).
  template <typename T>
  [[nodiscard]] Reg<T> mad(const Reg<T>& a, T b, const Reg<T>& c) {
    Reg<T> r;
    r.v = Vec<T>::mad(a.v, b, c.v);
    if constexpr (kTimed) time_arith<T>(r, Scoreboard::ready_max({a.ready, c.ready}));
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> add(const Reg<T>& a, const Reg<T>& b) {
    Reg<T> r;
    r.v = Vec<T>::add(a.v, b.v);
    if constexpr (kTimed) time_arith<T>(r, Scoreboard::ready_max({a.ready, b.ready}));
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> add(const Reg<T>& a, T b) {
    Reg<T> r;
    r.v = Vec<T>::add(a.v, b);
    if constexpr (kTimed) time_arith<T>(r, a.ready);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> sub(const Reg<T>& a, const Reg<T>& b) {
    Reg<T> r;
    r.v = Vec<T>::sub(a.v, b.v);
    if constexpr (kTimed) time_arith<T>(r, Scoreboard::ready_max({a.ready, b.ready}));
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> mul(const Reg<T>& a, const Reg<T>& b) {
    Reg<T> r;
    r.v = Vec<T>::mul(a.v, b.v);
    if constexpr (kTimed) time_arith<T>(r, Scoreboard::ready_max({a.ready, b.ready}));
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> mul(const Reg<T>& a, T b) {
    Reg<T> r;
    r.v = Vec<T>::mul(a.v, b);
    if constexpr (kTimed) time_arith<T>(r, a.ready);
    return r;
  }

  /// Affine index computation x*scale + offset, one integer MAD.
  [[nodiscard]] Reg<Index> affine(const Reg<Index>& x, Index scale, Index offset) {
    Reg<Index> r;
    r.v = Vec<Index>::affine(x.v, scale, offset);
    if constexpr (kTimed) time_alu(r, x.ready, 1.0);
    return r;
  }

  /// Clamps lanes into [lo, hi]; costs two ALU ops (min+max).
  template <typename T>
  [[nodiscard]] Reg<T> clamp(const Reg<T>& x, T lo, T hi) {
    Reg<T> r;
    r.v = Vec<T>::clamp(x.v, lo, hi);
    if constexpr (kTimed) time_alu(r, x.ready, 2.0);
    return r;
  }

  /// Charges `slots` ALU issue slots with no functional effect. Models
  /// compiler-generated bookkeeping (runtime loop counters, bounds
  /// predicates, re-materialized addresses) that the warp-synchronous C++
  /// form of a kernel does not express but real SASS executes. Baselines use
  /// this to reflect their measured instruction mixes; SSAM kernels never do.
  void charge_alu(double slots) {
    if constexpr (kTimed) {
      sb_.counters().alu_ops += static_cast<std::uint64_t>(slots);
      (void)sb_.issue(0, slots, arch_->lat.alu);
    }
  }

  // ------------------------------------------------------------- predicates

  /// pred[l] = (a[l] >= b) ? 1 : 0.
  template <typename T>
  [[nodiscard]] Pred cmp_ge(const Reg<T>& a, T b) {
    Pred r;
    r.v = Vec<T>::ge(a.v, b);
    if constexpr (kTimed) time_alu(r, a.ready, 1.0);
    return r;
  }

  template <typename T>
  [[nodiscard]] Pred cmp_lt(const Reg<T>& a, T b) {
    Pred r;
    r.v = Vec<T>::lt(a.v, b);
    if constexpr (kTimed) time_alu(r, a.ready, 1.0);
    return r;
  }

  [[nodiscard]] Pred pred_and(const Pred& a, const Pred& b) {
    Pred r;
    r.v = Vec<int>::logical_and(a.v, b.v);
    if constexpr (kTimed) time_alu(r, Scoreboard::ready_max({a.ready, b.ready}), 1.0);
    return r;
  }

  /// r = pred ? a : b (SEL instruction).
  template <typename T>
  [[nodiscard]] Reg<T> select(const Pred& pred, const Reg<T>& a, const Reg<T>& b) {
    Reg<T> r;
    r.v = Vec<T>::select(pred.v, a.v, b.v);
    if constexpr (kTimed) {
      time_alu(r, Scoreboard::ready_max({pred.ready, a.ready, b.ready}), 1.0);
    }
    return r;
  }

  // --------------------------------------------------------------- shuffles

  /// __shfl_up_sync: lane l receives lane l-delta; lanes < delta keep their
  /// own value. This is the partial-sum shift of Figure 2c.
  template <typename T>
  [[nodiscard]] Reg<T> shfl_up(std::uint32_t mask, const Reg<T>& a, int delta) {
    require_full_mask(mask);
    Reg<T> r;
    r.v = Vec<T>::shift_up(a.v, delta);
    if constexpr (kTimed) time_shfl(r, a.ready);
    return r;
  }

  /// __shfl_down_sync: lane l receives lane l+delta; top lanes keep their own.
  template <typename T>
  [[nodiscard]] Reg<T> shfl_down(std::uint32_t mask, const Reg<T>& a, int delta) {
    require_full_mask(mask);
    Reg<T> r;
    r.v = Vec<T>::shift_down(a.v, delta);
    if constexpr (kTimed) time_shfl(r, a.ready);
    return r;
  }

  /// __shfl_sync with a uniform source lane (broadcast).
  template <typename T>
  [[nodiscard]] Reg<T> shfl_idx(std::uint32_t mask, const Reg<T>& a, int src_lane) {
    require_full_mask(mask);
    Reg<T> r;
    r.v = Vec<T>::broadcast(a.v, src_lane);
    if constexpr (kTimed) time_shfl(r, a.ready);
    return r;
  }

  /// __shfl_xor_sync (butterfly exchange).
  template <typename T>
  [[nodiscard]] Reg<T> shfl_xor(std::uint32_t mask, const Reg<T>& a, int lane_mask) {
    require_full_mask(mask);
    Reg<T> r;
    r.v = Vec<T>::butterfly(a.v, lane_mask);
    if constexpr (kTimed) time_shfl(r, a.ready);
    return r;
  }

  // ---------------------------------------------------------- global memory

  /// Gather: r[l] = base[idx[l]] for active lanes (inactive lanes get T{}).
  /// Coalescing is derived from the actual lane addresses.
  template <typename T>
  [[nodiscard]] Reg<T> load_global(const T* base, const Reg<Index>& idx,
                                   const Pred* active = nullptr) {
    Reg<T> r;
    if constexpr (!kTimed) {
      if (active == nullptr) {
        r.v = Vec<T>::gather(base, idx.v);
      } else {
        r.v = Vec<T>::gather_if(base, idx.v, active->v);
      }
    } else {
      std::uint64_t addrs[kWarpSize];
      int n = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        if (active != nullptr && (*active)[l] == 0) {
          r[l] = T{};  // inactive lanes read as T{}, as in functional mode
          continue;
        }
        r[l] = base[idx[l]];
        addrs[n++] = reinterpret_cast<std::uint64_t>(base + idx[l]);
      }
      const GlobalAccess ga = mem_->load({addrs, static_cast<std::size_t>(n)}, sizeof(T));
      Counters& c = sb_.counters();
      ++c.gmem_load_insts;
      c.gmem_load_sectors += static_cast<std::uint64_t>(ga.sectors);
      c.l1_hit_lines += static_cast<std::uint64_t>(ga.l1_hit_lines);
      c.l2_hit_sectors += static_cast<std::uint64_t>(ga.l2_hit_sectors);
      c.dram_read_bytes +=
          static_cast<std::uint64_t>(ga.dram_sectors) * static_cast<std::uint64_t>(arch_->sector_bytes);
      const Cycle dep = Scoreboard::ready_max({idx.ready, active ? active->ready : 0});
      r.ready = sb_.issue(dep, std::max(1, ga.lines), ga.latency);
    }
    return r;
  }

  /// Scatter: base[idx[l]] = v[l] for active lanes.
  template <typename T>
  void store_global(T* base, const Reg<Index>& idx, const Reg<T>& v,
                    const Pred* active = nullptr) {
    if constexpr (!kTimed) {
      if (active == nullptr) {
        Vec<T>::scatter(base, idx.v, v.v);
      } else {
        Vec<T>::scatter_if(base, idx.v, v.v, active->v);
      }
    } else {
      std::uint64_t addrs[kWarpSize];
      int n = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        if (active != nullptr && (*active)[l] == 0) continue;
        base[idx[l]] = v[l];
        addrs[n++] = reinterpret_cast<std::uint64_t>(base + idx[l]);
      }
      const GlobalAccess ga = mem_->store({addrs, static_cast<std::size_t>(n)}, sizeof(T));
      Counters& c = sb_.counters();
      ++c.gmem_store_insts;
      c.gmem_store_sectors += static_cast<std::uint64_t>(ga.sectors);
      c.dram_write_bytes +=
          static_cast<std::uint64_t>(ga.dram_sectors) * static_cast<std::uint64_t>(arch_->sector_bytes);
      const Cycle dep = Scoreboard::ready_max({idx.ready, v.ready, active ? active->ready : 0});
      (void)sb_.issue(dep, std::max(1, ga.lines), 0);
    }
  }

  // ---------------------------------------------------------- shared memory

  /// Per-lane shared load with bank-conflict modeling.
  template <typename T>
  [[nodiscard]] Reg<T> load_shared(const Smem<T>& s, const Reg<int>& idx,
                                   const Pred* active = nullptr) {
    Reg<T> r;
    if constexpr (!kTimed) {
      if (active == nullptr) {
        r.v = Vec<T>::gather(s.data, idx.v);
      } else {
        r.v = Vec<T>::gather_if(s.data, idx.v, active->v);
      }
    } else {
      std::int64_t words[kWarpSize];
      int n = 0;
      constexpr int words_per_elem = static_cast<int>(sizeof(T) / kSmemWordBytes);
      for (int l = 0; l < kWarpSize; ++l) {
        if (active != nullptr && (*active)[l] == 0) {
          r[l] = T{};  // inactive lanes read as T{}, as in functional mode
          continue;
        }
        r[l] = s.data[idx[l]];
        words[n++] = s.base_word + static_cast<std::int64_t>(idx[l]) * words_per_elem;
      }
      const SmemAccessInfo info = analyze_smem_access({words, static_cast<std::size_t>(n)});
      const int passes = info.passes * words_per_elem;
      Counters& c = sb_.counters();
      ++c.smem_loads;
      if (info.broadcast) ++c.smem_broadcasts;
      c.smem_conflict_extra += static_cast<std::uint64_t>(passes - 1);
      const Cycle dep = Scoreboard::ready_max({idx.ready, active ? active->ready : 0});
      const int latency = arch_->lat.smem + (passes - 1) * arch_->lat.smem_conflict_step;
      r.ready = sb_.issue(dep, passes, latency);
    }
    return r;
  }

  /// Uniform-address shared load (the broadcast weight read of Listing 1).
  template <typename T>
  [[nodiscard]] Reg<T> load_shared_broadcast(const Smem<T>& s, int idx) {
    Reg<T> r;
    r.v = Vec<T>::splat(s.data[idx]);
    if constexpr (kTimed) {
      Counters& c = sb_.counters();
      ++c.smem_loads;
      ++c.smem_broadcasts;
      r.ready = sb_.issue(0, 1.0, arch_->lat.smem);
    }
    return r;
  }

  /// Fused broadcast-weight MAD: reads s[idx] (a uniform address, i.e. the
  /// broadcast weight read of Listing 1) and returns a * s[idx] + c. In
  /// timing mode this issues the exact same two-op sequence (broadcast smem
  /// load, then MAD) as the unfused form, with identical counters and
  /// scoreboard effects; in functional mode the broadcast value folds into a
  /// scalar-coefficient MAD — bit-identical per lane, half the lane traffic.
  template <typename T>
  [[nodiscard]] Reg<T> mad_broadcast(const Reg<T>& a, const Smem<T>& s, int idx,
                                     const Reg<T>& c) {
    if constexpr (kTimed) {
      const Reg<T> w = load_shared_broadcast(s, idx);
      return mad(a, w, c);
    } else {
      Reg<T> r;
      r.v = Vec<T>::mad(a.v, s.data[idx], c.v);
      return r;
    }
  }

  /// sum + the 32-lane row s[base .. base + 31] shifted up by `shift` >= 0
  /// lanes, the lanes below the shift repeating s[base]: lane l adds
  /// s[base + clamp(l - shift, 0, 31)] (the 3D kernels' combine of a
  /// neighbour plane's published sums). Timing mode issues the op sequence
  /// that spells this out (add the lane id, clamp into the row, shared
  /// load, add); functional mode runs one backend permute-and-add over the
  /// row, since the clamped index is not unit-stride and would gather lane
  /// by lane.
  template <typename T>
  [[nodiscard]] Reg<T> add_shared_shifted(const Reg<T>& sum, const Smem<T>& s, int base,
                                          int shift) {
    SSAM_REQUIRE(shift >= 0, "shared row shift must be non-negative");
    if constexpr (kTimed) {
      Reg<int> sidx = add(lane_id(), base - shift);
      sidx = clamp(sidx, base, base + kWarpSize - 1);
      return add(sum, load_shared(s, sidx));
    } else {
      Reg<T> r;
      Vec<T>::Ops::add_shifted(r.v.data(), sum.v.data(), s.data + base, shift);
      return r;
    }
  }

  /// Writes v to the 32 consecutive shared words s[base .. base + 31] (the
  /// 3D kernels' publish of an off-plane partial sum). Timing mode issues
  /// the lane-index ramp and a shared store; functional mode is one block
  /// copy.
  template <typename T>
  void store_shared_row(const Smem<T>& s, int base, const Reg<T>& v) {
    if constexpr (kTimed) {
      store_shared(s, iota<int>(base, 1), v);
    } else {
      std::memcpy(s.data + base, v.v.data(), sizeof(v.v.lane));
    }
  }

  template <typename T>
  void store_shared(const Smem<T>& s, const Reg<int>& idx, const Reg<T>& v,
                    const Pred* active = nullptr) {
    if constexpr (!kTimed) {
      if (active == nullptr) {
        Vec<T>::scatter(s.data, idx.v, v.v);
      } else {
        Vec<T>::scatter_if(s.data, idx.v, v.v, active->v);
      }
    } else {
      std::int64_t words[kWarpSize];
      int n = 0;
      constexpr int words_per_elem = static_cast<int>(sizeof(T) / kSmemWordBytes);
      for (int l = 0; l < kWarpSize; ++l) {
        if (active != nullptr && (*active)[l] == 0) continue;
        s.data[idx[l]] = v[l];
        words[n++] = s.base_word + static_cast<std::int64_t>(idx[l]) * words_per_elem;
      }
      const SmemAccessInfo info = analyze_smem_access({words, static_cast<std::size_t>(n)});
      const int passes = info.passes * words_per_elem;
      Counters& c = sb_.counters();
      ++c.smem_stores;
      c.smem_conflict_extra += static_cast<std::uint64_t>(passes - 1);
      const Cycle dep = Scoreboard::ready_max({idx.ready, v.ready, active ? active->ready : 0});
      (void)sb_.issue(dep, passes, 0);
    }
  }

  // --------------------------------------------------------- systolic sweep

  /// The systolic sweep of Figure 2c over output rows i in [0, count), for
  /// every pass k of `sched`: the partial sum starts at zero, shifts one
  /// lane up (shfl_up) between columns, and each tap of a column MADs
  /// rows[i + tap.row] * tap.coeff into it; emit(k, i, sum) receives each
  /// finished sum. With `weights`, a tap's coefficient is the broadcast
  /// shared read weights[tap.slot] (the filter of Listing 1), which the
  /// caller keeps equal to tap.coeff.
  ///
  /// Timing mode issues exactly that per-row op sequence, a row's passes
  /// back to back with emit after each, so counters and the scoreboard see
  /// the hand-written loop. Functional mode hands each pass to the lane
  /// backend, which keeps a group of rows' partial sums in vector registers
  /// (bit-identical values); emits then arrive pass by pass per chunk of
  /// rows. Either way a row's passes are emitted in order, but rows
  /// interleave differently, so emit may build on the same row's earlier
  /// passes and on nothing else.
  template <typename T, typename Emit>
  void systolic_sweep(const Reg<T>* rows, int count, const TapSchedule<T>& sched, Emit&& emit,
                      const Smem<T>* weights = nullptr) {
    if constexpr (kTimed) {
      for (int i = 0; i < count; ++i) {
        for (int k = 0; k < sched.passes(); ++k) {
          const simd::SweepPass<T> pass = sched.pass(k);
          Reg<T> sum = uniform(T{});
          std::int32_t t = pass.first;
          for (int c = 0; c < pass.columns; ++c) {
            if (c > 0) sum = shfl_up(kFullMask, sum, 1);
            for (; t < pass.col_end[c]; ++t) {
              const simd::SweepTap<T>& tap = pass.taps[t];
              sum = weights != nullptr
                        ? mad_broadcast(rows[i + tap.row], *weights, tap.slot, sum)
                        : mad(rows[i + tap.row], tap.coeff, sum);
            }
          }
          emit(k, i, std::as_const(sum));
        }
      }
    } else {
      (void)weights;
      constexpr int kChunk = 8;
      Reg<T> sums[kChunk];
      for (int i0 = 0; i0 < count; i0 += kChunk) {
        const int n = std::min(kChunk, count - i0);
        for (int k = 0; k < sched.passes(); ++k) {
          Vec<T>::Ops::systolic_sweep(sums[0].v.data(), sizeof(Reg<T>), rows[i0].v.data(),
                                      sizeof(Reg<T>), n, sched.pass(k));
          for (int j = 0; j < n; ++j) emit(k, i0 + j, std::as_const(sums[j]));
        }
      }
    }
  }

  /// The systolic sweep with every sum kept: pass k's sum of row i lands in
  /// out[k * count + i] (out must not overlap rows). Timing mode issues the
  /// emit form's op sequence exactly; functional mode has the lane backend
  /// write the sums straight into `out`, with no per-row copy.
  template <typename T>
  void systolic_sweep(const Reg<T>* rows, int count, const TapSchedule<T>& sched, Reg<T>* out,
                      const Smem<T>* weights = nullptr) {
    if constexpr (kTimed) {
      systolic_sweep(
          rows, count, sched,
          [&](int k, int i, const Reg<T>& sum) { out[k * count + i] = sum; }, weights);
    } else {
      (void)weights;
      for (int k = 0; k < sched.passes(); ++k) {
        Vec<T>::Ops::systolic_sweep(out[k * count].v.data(), sizeof(Reg<T>), rows[0].v.data(),
                                    sizeof(Reg<T>), count, sched.pass(k));
      }
    }
  }

 private:
  static void require_full_mask(std::uint32_t mask) {
    SSAM_REQUIRE(mask == kFullMask, "only full-warp shuffle masks are modeled");
  }

  template <typename T, typename R>
  void time_arith(Reg<R>& r, Cycle dep) {
    Counters& c = sb_.counters();
    if constexpr (detail::is_fp<T>) {
      ++c.fp_ops;
      if constexpr (sizeof(T) == 8) {
        ++c.fp64_ops;
        r.ready = sb_.issue(dep, arch_->fp64_issue_cost, arch_->lat.fp64_mad);
      } else {
        r.ready = sb_.issue(dep, 1.0, arch_->lat.fp_mad);
      }
    } else {
      ++c.alu_ops;
      r.ready = sb_.issue(dep, 1.0, arch_->lat.alu);
    }
  }

  template <typename R>
  void time_alu(Reg<R>& r, Cycle dep, double slots) {
    sb_.counters().alu_ops += static_cast<std::uint64_t>(slots);
    r.ready = sb_.issue(dep, slots, arch_->lat.alu);
  }

  template <typename R>
  void time_shfl(Reg<R>& r, Cycle dep) {
    ++sb_.counters().shfl_ops;
    r.ready = sb_.issue(dep, 1.0, arch_->lat.shfl);
  }

  const ArchSpec* arch_;
  [[no_unique_address]] std::conditional_t<kTimed, MemorySystem*, detail::Nothing> mem_{};
  int warp_id_;
  [[no_unique_address]] std::conditional_t<kTimed, Scoreboard, detail::Nothing> sb_;
};

/// Timing specialization: the historical `WarpContext` name binds to it so
/// scoreboard-level unit tests and microbenchmarks read naturally.
using WarpContext = WarpContextT<ExecMode::kTiming>;
using FunctionalWarpContext = WarpContextT<ExecMode::kFunctional>;

}  // namespace ssam::sim
