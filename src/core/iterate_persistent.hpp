// Persistent iteration engine: cross-iteration tile residency for the
// iterative stencil drivers (the PERKS execution model of Zhang et al.,
// arXiv:2204.02064, emulated on the host pool — see gpusim/persistent.hpp
// for the scheduling substrate).
//
// The per-step relaunch drivers (core/iterate.hpp) re-read and re-write the
// full grids through global memory every time step. The persistent engine
// instead decomposes the domain into full-width bands (2D: row bands, 3D:
// z-plane bands), pins each band to one pool worker for the whole run, and
// keeps the band's working set *resident* in per-tile ping/pong buffers
// across steps. Between steps only the boundary rows/planes move, directly
// between neighbouring tiles through lock-free epoch-counted halo channels.
// The channels are zero-copy: a producer writes its boundary straight into
// the halo region of the consumer's residence buffer (every tile flips
// buffers once per sweep, so epoch e lives in buffer e % 2 everywhere), and
// the epoch counters are pure synchronization. From two sweeps up the first
// sweep reads the source grid directly and the last sweep stores directly
// back to it, so a run touches the global arrays exactly once on each side
// with no staging copies at all. Residence is bounded: tiles stream through
// a ring of slot pairs per shard (core/shard.hpp), so a DRAM-sized grid
// keeps only a cache-sized window resident.
//
// Each band sweep replays the unmodified SSAM kernel body (register cache +
// systolic shuffles) over the residence buffer through the owner's pooled
// BlockContext, shifted by a row/plane origin — so outputs are bit-identical
// to the relaunch path in functional mode, which the persistent-path tests
// pin with golden hashes. Temporal blocking composes: with t > 1 every
// exchange carries t*r halo units and each sweep advances t fused steps in
// registers, exactly like the temporal kernels the per-step path launches.
//
// An optional element-wise post hook runs over the band after each sweep
// (before the boundary is published), with an optional second resident
// field — enough for two-field updates like the acoustic wave equation
// (examples/acoustic_wave_3d.cpp). The post path keeps the staged
// load/drain (the hook must see every produced band in residence).
//
// One engine serves both dimensions: a band geometry (detail::RowBands,
// detail::PlaneBands) names the band axis, its halo depth, its alignment
// and how to view a run of units, and a sweep factory binds one kernel
// sweep to such views. detail::iterate_bands runs either the relaunch loop
// (one loop for every shard policy) or the resident tiles, which
// detail::run_resident sets up for the iteration engines and the fused
// chain (core/chain.hpp) alike.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/log.hpp"
#include "core/config.hpp"
#include "core/faultinject.hpp"
#include "core/iterate.hpp"
#include "core/shard.hpp"
#include "core/stencil2d_temporal.hpp"
#include "core/stencil3d_temporal.hpp"
#include "gpusim/device.hpp"
#include "gpusim/persistent.hpp"

namespace ssam::core {

// IterationPolicy (kAuto / kRelaunch / kPersistent) lives in
// core/config.hpp so SimConfig can carry the default without pulling in
// the engine; the name is unchanged (ssam::core::IterationPolicy).

struct PersistentOptions {
  IterationPolicy policy = IterationPolicy::kAuto;
  ShardPolicy shard;      ///< single pool, or sharded across virtual devices
  int tiles = 0;  ///< 0: auto (residence-sized bands, >= 2 per worker)
  int t = 1;      ///< fused time steps per sweep (temporal blocking)
  /// Sliding-window outputs per thread. 0: auto — the engine resolves it
  /// per run from t and the kernel bounds (resolve_p in rcache/blocking.hpp);
  /// > 0: used as given. The result never depends on it.
  int p = 0;
  int block_threads = 128;
  int warps3d = 8;        ///< planes per block for the 3D kernels
  /// Pin the whole (single-shard) run to this virtual device: sweeps fan
  /// out over the device's pool slice only and its counters record the
  /// traffic. This is how the SimServer packs independent jobs onto
  /// different devices; mutually exclusive with a sharded policy (a shard
  /// split already names its devices). Null: the global pool.
  sim::Device* device = nullptr;
  /// Cooperative cancellation, observed at every sweep boundary of both
  /// paths (persistent tiles and relaunch loops). A cancelled run unwinds
  /// by throwing CancelledError on the calling thread; an inert
  /// (default-constructed) token costs nothing.
  CancelToken cancel;
};

/// What a run actually did (the policy decision is runtime).
struct PersistentRunStats {
  int sweeps = 0;  ///< kernel sweeps executed; plain steps = sweeps * t
  int t = 1;
  int p = 0;       ///< sliding window the sweeps used (resolved when auto)
  int tiles = 1;
  int devices = 1;          ///< shards actually used (after domain clamping)
  bool sharded = false;     ///< true: ran across a virtual device group
  bool persistent = false;  ///< false: per-step relaunch path was used
  int ring_slots = 0;       ///< residence slot pairs per shard (0: relaunch)
  std::size_t residence_bytes = 0;  ///< residence arena carved, all shards
};

namespace detail {

/// Sentinel for "no post hook".
struct NoPost {};

/// Shared abort state of one persistent run. An exception escaping a pool
/// worker's task would terminate the process, so resident tiles never
/// throw: they *record* a cancellation or injected fault here and park, the
/// cooperative scheduler polls `stop` and unwinds every participant, and
/// the engine rethrows on the calling thread once run_persistent_on
/// returns. The first recorded fault wins; an aborted run is torn at
/// tile/sweep boundaries only (some tiles may already have drained), so the
/// global arrays are in an unspecified-but-valid state — the server's retry
/// path restores inputs from a snapshot before re-running.
struct RunControl {
  CancelToken cancel;   ///< observed at every sweep boundary
  int device = -1;      ///< fault attribution (FaultPlan device filter)
  bool faults = false;  ///< injector armed at run start
  std::atomic<bool> stop{false};
  /// -1: no fault; else (site << 1) | transient — one atomic so the calling
  /// thread reads site and class consistently without extra ordering.
  std::atomic<int> fault_{-1};

  /// Tile-side gate, called only when the sweep would actually execute
  /// (after the readiness checks) so blocked-tile polling never inflates
  /// the fault draw stream. True: the run is aborting, park the tile.
  [[nodiscard]] bool sweep_gate(bool publishing) {
    if (stop.load(std::memory_order_acquire)) return true;
    if (cancel.cancelled()) {
      stop.store(true, std::memory_order_release);
      return true;
    }
    if (faults) {
      FaultInjector& fi = FaultInjector::global();
      if (fi.should_inject(FaultSite::kKernelSweep, device)) {
        record_fault(FaultSite::kKernelSweep);
        return true;
      }
      if (publishing && fi.should_inject(FaultSite::kHaloSend, device)) {
        record_fault(FaultSite::kHaloSend);
        return true;
      }
    }
    return false;
  }

  void record_fault(FaultSite site) {
    const bool transient = FaultInjector::global().plan().site(site).transient;
    int expected = -1;
    fault_.compare_exchange_strong(
        expected, (static_cast<int>(site) << 1) | (transient ? 1 : 0),
        std::memory_order_acq_rel);
    stop.store(true, std::memory_order_release);
  }

  /// Engine-side epilogue on the calling thread: rethrows what the run
  /// recorded (a fault beats a concurrent cancel — it is what actually
  /// stopped the work).
  void throw_if_aborted() const {
    const int f = fault_.load(std::memory_order_acquire);
    if (f >= 0) {
      const auto site = static_cast<FaultSite>(f >> 1);
      throw FaultError(site, (f & 1) != 0,
                       std::string("injected fault at ") + fault_site_name(site) +
                           " aborted the persistent run");
    }
    if (cancel.cancelled()) {
      throw CancelledError("persistent run cancelled", cancel.reason());
    }
  }
};

/// Relaunch-path gate, called on the driving thread between sweeps — that
/// thread owns the loop, so it may throw directly.
inline void relaunch_sweep_gate(const CancelToken& cancel, int device) {
  if (cancel.cancelled()) {
    throw CancelledError("iterative run cancelled", cancel.reason());
  }
  FaultInjector& fi = FaultInjector::global();
  if (fi.enabled()) fi.maybe_throw(FaultSite::kKernelSweep, device, "relaunch sweep");
}

/// One kernel sweep bound to concrete views: its launch geometry, its body,
/// and an optional element-wise epilogue over the band it produced (an
/// iteration post hook or a chain stage's map). The epilogue runs before
/// the band's boundary is published, so consumers always see post-epilogue
/// state — the relaunch path and the staged chain apply it to the whole
/// grid before the next sweep reads it.
struct BandSweep {
  sim::LaunchConfig cfg;
  std::function<void(sim::FunctionalBlockContext&)> body;
  std::function<void()> epilogue;
};

/// One 2D stencil sweep of t fused steps, placed as the sweep-factory
/// contract says (see iterate_bands); `band` < 0 keeps the full-grid launch.
template <typename T>
[[nodiscard]] BandSweep make_stencil2d_sweep(const SystolicPlan<T>& plan, int t, int p,
                                             int block_threads, GridView2D<const T> in,
                                             GridView2D<T> out, Index origin, Index store_off,
                                             Index band) {
  Stencil2dSetup s =
      t == 1 ? stencil2d_setup(in, plan, StencilOptions{p, block_threads})
             : stencil2d_temporal_setup(in, plan, TemporalSsamOptions{t, p, block_threads});
  s.row_origin = origin;
  s.store_row_offset = store_off;
  if (band >= 0) s.cfg.grid.y = static_cast<int>(ceil_div(band, static_cast<Index>(p)));
  BandSweep k{s.cfg, {}, {}};
  if (t == 1) {
    k.body = make_stencil2d_body<T>(s, in, plan.passes.front(), out);
  } else {
    k.body = make_stencil2d_temporal_body<T>(s, in, plan.passes.front(), t, plan.rows_halo(),
                                             out);
  }
  return k;
}

/// Band geometry of one run: the band axis holds `units` units (rows in 2D,
/// z-planes in 3D) of `unit_elems` contiguous elements; every band carries
/// `ht`/`hb` halo units above/below and is cut at multiples of `align`
/// units (the sliding window p in 2D, the valid planes per block in 3D).
/// The per-dimension geometries add `view(base, n)`: the grid view of n
/// consecutive units starting at `base`.
struct BandGeometry {
  Index units = 0;
  Index unit_elems = 0;
  Index ht = 0;
  Index hb = 0;
  Index align = 1;

  /// Smallest band that can source its neighbours' halos.
  [[nodiscard]] Index min_band() const { return std::max<Index>({ht, hb, 1}); }
};

/// Row bands of a `w`-wide 2D grid.
struct RowBands : BandGeometry {
  Index w = 0;

  template <typename U>
  [[nodiscard]] GridView2D<U> view(U* base, Index rows) const {
    return {base, w, rows, w};
  }
};

/// z-plane bands of an nx x ny x nz grid.
struct PlaneBands : BandGeometry {
  Index nx = 0;
  Index ny = 0;

  template <typename U>
  [[nodiscard]] GridView3D<U> view(U* base, Index planes) const {
    return {base, nx, ny, planes};
  }
};

/// One resident band tile: the dimension-agnostic state machine. A `unit`
/// is one contiguous row (2D) or plane (3D) of `unit_elems` elements; the
/// residence buffers hold ht + band + hb units, the band starting at unit
/// ht. The engine binds the tile's sweeps (run_resident). A run keeps its
/// tiles in one array and each owner writes its tile's state, so tiles
/// start on their own cache line.
template <typename T>
class alignas(64) ResidentBandTile final : public sim::PersistentTask {
 public:
  struct Wiring {
    const sim::ArchSpec* arch = nullptr;
    /// The tile's distinct sweeps. Sweep s runs table[s] while s < lead (a
    /// chain's stages, an iteration's fused first sweep); a fused last
    /// sweep past the lead runs the final entry; every other sweep runs
    /// entry lead + (s - lead) % 2. Sweep s reads epoch s (buf_[s % 2]) and
    /// writes epoch s + 1 (the other buffer).
    std::span<const BandSweep> table;
    int lead = 0;
    /// fused_first: sweep 0 reads `src` itself (no staged load; the global
    /// array serves as epoch 0). fused_last: the final sweep stores straight
    /// to `dst` (no staged drain). The engine decides when fusing is safe.
    bool fused_first = false;
    bool fused_last = false;
    const T* src = nullptr;  ///< initial state or chain input (full array)
    T* dst = nullptr;        ///< final state or chain output (full array)
    T* aux_global = nullptr; ///< optional aux field (full array)
    Index unit_elems = 0;
    Index band = 0;  ///< units owned by this tile
    Index ht = 0;    ///< halo units above (toward unit 0)
    Index hb = 0;    ///< halo units below
    Index u0 = 0;    ///< first band unit in the global arrays
    int sweeps = 0;
    T* buf_a = nullptr;
    T* buf_b = nullptr;
    T* aux_res = nullptr;
    sim::HaloChannel* in_lo = nullptr;   ///< from the tile above: ht units
    sim::HaloChannel* in_hi = nullptr;   ///< from the tile below: hb units
    sim::HaloChannel* out_lo = nullptr;  ///< to the tile above: my top hb units
    sim::HaloChannel* out_hi = nullptr;  ///< to the tile below: my bottom ht units
    /// Sharded runs: the owning device's counters, and which outgoing
    /// channels cross a device seam (diagnostics only — seam channels
    /// behave exactly like intra-shard ones).
    sim::DeviceCounters* counters = nullptr;
    bool seam_lo = false;
    bool seam_hi = false;
    /// The run's shared abort state (cancellation + fault injection); the
    /// engine wires every tile of a run to the same object.
    RunControl* control = nullptr;
    /// Residence ring (core/shard.hpp): done flags of the previous
    /// occupants of this tile's slot and of each neighbour's slot (null:
    /// first occupant, free from the start), and this tile's own flag,
    /// raised once it no longer touches its slot.
    const std::atomic<bool>* slot_gate = nullptr;
    const std::atomic<bool>* lo_slot_gate = nullptr;
    const std::atomic<bool>* hi_slot_gate = nullptr;
    std::atomic<bool>* done_flag = nullptr;

    /// Wires tile i of `L`: its band, residence buffers, the four channel
    /// ends, seam flags, counters (a device-pinned run's device when
    /// unsharded) and ring gates.
    void attach(const BandLayout& L, int i, sim::Device* pinned) {
      const auto u = static_cast<std::size_t>(i);
      u0 = L.starts[u];
      band = L.starts[u + 1] - u0;
      buf_a = reinterpret_cast<T*>(L.buf_a[u]);
      buf_b = reinterpret_cast<T*>(L.buf_b[u]);
      aux_res = reinterpret_cast<T*>(L.aux[u]);
      if (i > 0) {
        in_lo = &L.chans[2 * u - 2];
        out_lo = &L.chans[2 * u - 1];
        seam_lo = L.seam_after(i - 1);
        lo_slot_gate = L.slot_gate(i - 1);
      }
      if (i + 1 < L.tiles()) {
        out_hi = &L.chans[2 * u];
        in_hi = &L.chans[2 * u + 1];
        seam_hi = L.seam_after(i);
        hi_slot_gate = L.slot_gate(i + 1);
      }
      counters = L.counters_of(i);
      if (counters == nullptr && pinned != nullptr) counters = &pinned->counters();
      slot_gate = L.slot_gate(i);
      done_flag = &L.done[u];
    }
  };

  /// Installs the tile's wiring; called once, before the run starts.
  void wire(Wiring w) { w_ = std::move(w); }

  [[nodiscard]] bool done() const override { return state_ == State::kDone; }

  /// Waiting for the previous occupant of its ring slot to finish.
  [[nodiscard]] bool parked() const override {
    return state_ == State::kLoad && !slot_free(w_.slot_gate);
  }

  [[nodiscard]] bool try_advance() override {
    switch (state_) {
      case State::kLoad: {
        // The slot must be released by its previous occupant; a staged
        // load also publishes epoch 0 into both neighbours' slots.
        if (!slot_free(w_.slot_gate)) return false;
        if (!w_.fused_first) {
          if (!neighbour_slots_free()) return false;
          // Staged load: copy the band into residence and publish the
          // initial boundary as epoch 0.
          copy_units(w_.buf_a + w_.ht * w_.unit_elems, w_.src + w_.u0 * w_.unit_elems,
                     w_.band);
          publish_boundaries(w_.buf_a, 0);
        }
        if (w_.aux_res != nullptr) {
          copy_units(w_.aux_res, w_.aux_global + w_.u0 * w_.unit_elems, w_.band);
        }
        state_ = w_.sweeps > 0 ? State::kStep : State::kDrain;
        return true;
      }
      case State::kStep: {
        const bool fused_first = s_ == 0 && w_.fused_first;
        // All-or-nothing readiness: input epoch present (unless this sweep
        // reads the global array) and output halo slots free, otherwise
        // yield to another tile.
        if (!fused_first) {
          if (w_.in_lo != nullptr && !w_.in_lo->available(s_)) return false;
          if (w_.in_hi != nullptr && !w_.in_hi->available(s_)) return false;
        }
        const bool will_publish = s_ + 1 < w_.sweeps;  // the final boundary
                                                       // has no consumer
        if (will_publish) {
          if (!neighbour_slots_free()) return false;
          if (w_.out_lo != nullptr && !w_.out_lo->can_publish(s_ + 1)) return false;
          if (w_.out_hi != nullptr && !w_.out_hi->can_publish(s_ + 1)) return false;
        }
        // Ready to execute: last chance to observe an abort or absorb an
        // injected fault. Parking here (not throwing — we are on a pool
        // worker) lets the scheduler unwind at a clean sweep boundary.
        if (w_.control != nullptr && w_.control->sweep_gate(will_publish)) return false;
        if (!fused_first) replicate_domain_edges();
        const BandSweep& k = sweep_at(s_);
        sim::run_grid_on_caller(*w_.arch, k.cfg, k.body);
        if (w_.counters != nullptr) {
          w_.counters->sweeps.fetch_add(1, std::memory_order_relaxed);
        }
        // The consumed halos (epoch s_) free up for epoch s_ + 2.
        if (w_.in_lo != nullptr) w_.in_lo->release(s_);
        if (w_.in_hi != nullptr) w_.in_hi->release(s_);
        if (k.epilogue) k.epilogue();
        if (will_publish) publish_boundaries(next_buf(), s_ + 1);
        flip_ ^= 1;
        ++s_;
        if (s_ == w_.sweeps) state_ = State::kDrain;
        return true;
      }
      case State::kDrain: {
        if (!w_.fused_last && w_.sweeps > 0) {
          copy_units(w_.dst + w_.u0 * w_.unit_elems, cur_buf() + w_.ht * w_.unit_elems,
                     w_.band);
        }
        if (w_.aux_res != nullptr) {
          copy_units(w_.aux_global + w_.u0 * w_.unit_elems, w_.aux_res, w_.band);
        }
        // Every neighbour has published all it owes this slot (this tile
        // consumed the last epoch), so the next occupant may take it.
        if (w_.done_flag != nullptr) w_.done_flag->store(true, std::memory_order_release);
        state_ = State::kDone;
        return true;
      }
      case State::kDone:
        return false;
    }
    return false;  // unreachable
  }

 private:
  enum class State { kLoad, kStep, kDrain, kDone };

  [[nodiscard]] static bool slot_free(const std::atomic<bool>* gate) {
    return gate == nullptr || gate->load(std::memory_order_acquire);
  }
  [[nodiscard]] bool neighbour_slots_free() const {
    return slot_free(w_.lo_slot_gate) && slot_free(w_.hi_slot_gate);
  }

  /// The table entry sweep `s` runs (see Wiring::table).
  [[nodiscard]] const BandSweep& sweep_at(int s) const {
    if (s < w_.lead) return w_.table[static_cast<std::size_t>(s)];
    if (w_.fused_last && s == w_.sweeps - 1) return w_.table.back();
    return w_.table[static_cast<std::size_t>(w_.lead + (s - w_.lead) % 2)];
  }

  [[nodiscard]] T* cur_buf() const { return flip_ == 0 ? w_.buf_a : w_.buf_b; }
  [[nodiscard]] T* next_buf() const { return flip_ == 0 ? w_.buf_b : w_.buf_a; }

  void copy_units(T* dst, const T* src, Index units) const {
    std::memcpy(dst, src, static_cast<std::size_t>(units * w_.unit_elems) * sizeof(T));
  }

  /// Domain-boundary halos (no neighbour tile) replicate the band edge unit
  /// of the current state — exactly what the full-grid kernels' clamped
  /// loads would read. Channel-side halos need nothing here: the producer
  /// already wrote epoch s_ into this buffer's halo region.
  void replicate_domain_edges() {
    T* buf = cur_buf();
    const Index ue = w_.unit_elems;
    if (w_.in_lo == nullptr) {
      for (Index u = 0; u < w_.ht; ++u) copy_units(buf + u * ue, buf + w_.ht * ue, 1);
    }
    if (w_.in_hi == nullptr) {
      T* below = buf + (w_.ht + w_.band) * ue;
      const T* edge = buf + (w_.ht + w_.band - 1) * ue;
      for (Index u = 0; u < w_.hb; ++u) copy_units(below + u * ue, edge, 1);
    }
  }

  void note_publish(std::size_t bytes, bool seam) const {
    if (w_.counters == nullptr) return;
    w_.counters->halo_bytes_out.fetch_add(bytes, std::memory_order_relaxed);
    if (seam) {
      w_.counters->seam_bytes_out.fetch_add(bytes, std::memory_order_relaxed);
      w_.counters->seam_epochs_out.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Publishes the boundary of `buf`'s band as epoch `e` — written directly
  /// into the consumer's buffer-(e%2) halo region (zero-copy channels).
  void publish_boundaries(const T* buf, std::int64_t e) {
    const Index ue = w_.unit_elems;
    if (w_.out_lo != nullptr) {  // my top hb units feed the upper tile's lower halo
      const std::size_t bytes = static_cast<std::size_t>(w_.hb * ue) * sizeof(T);
      std::memcpy(w_.out_lo->publish_slot(e), buf + w_.ht * ue, bytes);
      w_.out_lo->publish(e);
      note_publish(bytes, w_.seam_lo);
    }
    if (w_.out_hi != nullptr) {  // my bottom ht units feed the lower tile's upper halo
      const std::size_t bytes = static_cast<std::size_t>(w_.ht * ue) * sizeof(T);
      std::memcpy(w_.out_hi->publish_slot(e), buf + w_.band * ue, bytes);
      w_.out_hi->publish(e);
      note_publish(bytes, w_.seam_hi);
    }
  }

  Wiring w_;
  State state_ = State::kLoad;
  int flip_ = 0;
  int s_ = 0;
};

[[nodiscard]] inline sim::PersistentWorkspace& default_workspace() {
  thread_local sim::PersistentWorkspace ws;
  return ws;
}

[[nodiscard]] inline bool choose_persistent(IterationPolicy policy, int sweeps) {
  switch (policy) {
    case IterationPolicy::kRelaunch:
      return false;
    case IterationPolicy::kPersistent:
      return true;
    case IterationPolicy::kAuto:
      return sweeps >= 2;  // one sweep cannot amortize tile setup
  }
  return false;
}

/// Deterministic one-line record of what the runtime policy knobs resolved
/// to (no addresses, no timings) — the auto-selection tests pin this shape.
inline void log_policy_decision(const char* engine, IterationPolicy policy,
                                const PersistentRunStats& r) {
  if (log_level() > LogLevel::kDebug) return;
  const char* requested = policy == IterationPolicy::kAuto        ? "auto"
                          : policy == IterationPolicy::kRelaunch  ? "relaunch"
                                                                  : "persistent";
  std::string m(engine);
  m += ": policy=";
  m += requested;
  m += " -> ";
  m += r.persistent ? "persistent" : "relaunch";
  m += r.sharded ? ", shard=sharded(" + std::to_string(r.devices) + ")"
                 : std::string(", shard=single");
  m += ", tiles=" + std::to_string(r.tiles);
  m += ", sweeps=" + std::to_string(r.sweeps);
  m += ", t=" + std::to_string(r.t);
  m += ", p=" + std::to_string(r.p);
  m += ", ring_slots=" + std::to_string(r.ring_slots);
  m += ", residence_bytes=" + std::to_string(r.residence_bytes);
  log_debug(m);
}

/// The one resident-run setup, shared by the iteration engines and the
/// fused chain: lays out the bands of `g` (core/shard.hpp), wires one tile
/// per band to the run's abort control, channels and ring slot, binds each
/// tile's sweep table, runs the tiles (one cooperative scheduler on the
/// run's lane, one per device when sharded) and rethrows what the run
/// recorded. `proto` carries the run-wide wiring (arch, src, dst, aux,
/// sweeps, lead, fused ends). For every table entry, `kernel(s, in, out,
/// origin, store_off, band)` builds sweep s over the band whose first unit
/// sits at `origin` in `in`, storing it at origin + store_off in `out`;
/// `epilogue(s, next, cur, aux, band)` binds the sweep's optional epilogue
/// over the band it wrote, the band it read, and the tile's aux band.
template <typename T, typename Geo, typename KernelFn, typename EpilogueFn>
void run_resident(const char* engine, const Geo& g,
                  typename ResidentBandTile<T>::Wiring proto, const PersistentOptions& opt,
                  sim::PersistentWorkspace* ws, PersistentRunStats& r, KernelFn&& kernel,
                  EpilogueFn&& epilogue) {
  BandLayoutRequest req;
  req.units = g.units;
  req.unit_elems = g.unit_elems;
  req.elem_bytes = sizeof(T);
  req.ht = g.ht;
  req.hb = g.hb;
  req.align = g.align;
  req.min_band = g.min_band();
  req.want_tiles = opt.tiles;
  req.sweeps = proto.sweeps;
  req.has_aux = proto.aux_global != nullptr;
  req.lane_workers = opt.device != nullptr ? opt.device->pool().size() : 0;
  sim::PersistentWorkspace& wsp = ws != nullptr ? *ws : default_workspace();
  const BandLayout L = build_band_layout(req, opt.shard, wsp);
  r.tiles = L.tiles();
  r.devices = L.sharded() ? static_cast<int>(L.devices.size()) : 1;
  r.sharded = L.sharded();
  r.persistent = true;
  r.ring_slots = L.ring_slots;
  r.residence_bytes = L.residence_bytes;
  log_policy_decision(engine, opt.policy, r);
  if (proto.sweeps == 0) return;

  RunControl ctl;
  ctl.cancel = opt.cancel;
  ctl.device = opt.device != nullptr ? opt.device->index() : -1;
  ctl.faults = FaultInjector::global().enabled();
  proto.control = &ctl;
  proto.unit_elems = g.unit_elems;
  proto.ht = g.ht;
  proto.hb = g.hb;

  // Table entries per tile: the lead sweeps, up to two alternating middle
  // sweeps, and a fused last sweep past the lead. Entry e stands for sweep
  // e, the fused-last entry for the final sweep.
  const int sweeps = proto.sweeps;
  const int last = proto.fused_last && sweeps - 1 >= proto.lead ? 1 : 0;
  const int entries = proto.lead + std::min(2, sweeps - proto.lead - last) + last;
  const auto n = static_cast<std::size_t>(entries);
  const auto tiles = static_cast<std::size_t>(L.tiles());
  std::vector<BandSweep> table(tiles * n);
  std::vector<ResidentBandTile<T>> tile_objs(tiles);
  std::vector<sim::PersistentTask*> tasks(tiles);
  for (std::size_t i = 0; i < tiles; ++i) {
    typename ResidentBandTile<T>::Wiring wr = proto;
    wr.attach(L, static_cast<int>(i), opt.device);
    BandSweep* mine = table.data() + i * n;
    for (int e = 0; e < entries; ++e) {
      const int s = last == 1 && e == entries - 1 ? sweeps - 1 : e;
      const bool first = s == 0 && wr.fused_first;
      const bool fin = s == sweeps - 1 && wr.fused_last;
      // A fused first sweep reads the band where it sits in `src`, a fused
      // last sweep stores it where it sits in `dst`; every other sweep
      // reads and writes the band at unit ht of the residence buffers.
      const T* in = first ? wr.src : (s % 2 == 0 ? wr.buf_a : wr.buf_b);
      T* out = fin ? wr.dst : (s % 2 == 0 ? wr.buf_b : wr.buf_a);
      const Index origin = first ? wr.u0 : g.ht;
      const Index store = fin ? wr.u0 : g.ht;
      BandSweep& k = mine[e];
      // The store view ends at the band, so the sweep never writes the
      // target buffer's halo units (the next exchange fills them).
      k = kernel(s, g.view(in, first ? g.units : g.ht + wr.band + g.hb),
                 g.view(out, store + wr.band), origin, store - origin, wr.band);
      k.epilogue = epilogue(s, out + store * g.unit_elems, in + origin * g.unit_elems,
                            wr.aux_res, wr.band);
    }
    wr.table = std::span<const BandSweep>(mine, n);
    tile_objs[i].wire(std::move(wr));
    tasks[i] = &tile_objs[i];
  }

  if (!L.sharded()) {
    ThreadPool& lane = opt.device != nullptr ? opt.device->pool() : ThreadPool::global();
    sim::run_persistent_on(lane, tasks, &ctl.stop);
  } else {
    std::vector<std::span<sim::PersistentTask* const>> groups;
    groups.reserve(L.tile_range.size());
    for (const auto& [tb, te] : L.tile_range) {
      groups.emplace_back(tasks.data() + tb, static_cast<std::size_t>(te - tb));
    }
    sim::run_persistent_group(L.devices, groups, &ctl.stop);
  }
  ctl.throw_if_aborted();
}

/// The iteration engine behind iterate_stencil2d_persistent and
/// iterate_stencil3d_persistent: `sweeps` sweeps over `a` on the bands of
/// `g`, final state in `a` (`b` is the relaunch path's scratch).
/// `sweep(in, out, origin, store_off, band)` is the geometry's sweep
/// factory: one kernel sweep over the band of `band` units whose first unit
/// sits at `origin` in `in`, stored at origin + store_off in `out`. The
/// optional post hook runs element-wise over each band after its sweep,
/// with the matching band of the aux field.
template <typename T, typename Geo, typename GridT, typename SweepFn, typename PostFn>
PersistentRunStats iterate_bands(const char* engine, const sim::ArchSpec& arch, const Geo& g,
                                 GridT& a, GridT& b, int sweeps, const PersistentOptions& opt,
                                 const SweepFn& sweep, PostFn& post, GridT* aux,
                                 sim::PersistentWorkspace* ws, PersistentRunStats r) {
  constexpr bool kHasPost = !std::is_same_v<PostFn, NoPost>;
  // The post hook bound to one band's views: next (the sweep's output),
  // cur (its input) and aux (null: no aux field).
  auto bind_post = [&g, &post](T* next, const T* cur, T* aux_band,
                               Index band) -> std::function<void()> {
    if constexpr (kHasPost) {
      return [&g, &post, next, cur, aux_band, band] {
        using View = decltype(g.view(aux_band, band));
        post(g.view(next, band), g.view(cur, band),
             aux_band != nullptr ? g.view(aux_band, band) : View{});
      };
    } else {
      return {};
    }
  };

  if (!choose_persistent(opt.policy, sweeps)) {
    const ShardSplit sp = split_shards(g.units, opt.shard, g.align, g.min_band());
    r.devices = sp.sharded() ? sp.shards() : 1;
    r.sharded = sp.sharded();
    if (sweeps > 0) {
      // One relaunch loop for every shard policy: each shard sweeps its
      // band of the global grids on its device's pool — a single-pool run
      // is the one shard [0, units) on the run's lane — with the store
      // clipped at the shard seam (units past the band belong to the next
      // device). One group barrier per sweep keeps the global arrays
      // consistent, so seam reads come straight from them and results are
      // bit-identical to the per-step path. Kernel [parity][shard], built
      // only for the parities the run uses; a one-shard run keeps its
      // kernels on the stack.
      const auto ns = static_cast<std::size_t>(sp.shards());
      const auto parities = static_cast<std::size_t>(std::min(sweeps, 2));
      std::array<BandSweep, 2> local;
      std::vector<BandSweep> many(ns > 1 ? 2 * ns : 0);
      BandSweep* kernels = ns > 1 ? many.data() : local.data();
      for (std::size_t s = 0; s < ns; ++s) {
        const Index u0 = sp.starts[s];
        const Index band = sp.starts[s + 1] - u0;
        for (std::size_t parity = 0; parity < parities; ++parity) {
          const T* cur = (parity == 0 ? a : b).data();
          T* nxt = (parity == 0 ? b : a).data();
          BandSweep& k = kernels[parity * ns + s];
          k = sweep(g.view(cur, g.units), g.view(nxt, u0 + band), u0, Index{0}, band);
          k.epilogue = bind_post(nxt + u0 * g.unit_elems, cur + u0 * g.unit_elems,
                                 aux != nullptr ? aux->data() + u0 * g.unit_elems : nullptr,
                                 band);
        }
      }
      const int dev = !sp.sharded() && opt.device != nullptr ? opt.device->index() : -1;
      for (int sw = 0; sw < sweeps; ++sw) {
        relaunch_sweep_gate(opt.cancel, dev);
        const BandSweep* ks = kernels + static_cast<std::size_t>(sw % 2) * ns;
        auto run_shard = [&](int s) {
          sim::Device* d = sp.sharded() ? sp.devices[static_cast<std::size_t>(s)] : opt.device;
          const BandSweep& k = ks[s];
          sim::detail::run_functional_grid_on(d != nullptr ? d->pool() : ThreadPool::global(),
                                              arch, k.cfg, k.body);
          if (d != nullptr) d->counters().sweeps.fetch_add(1, std::memory_order_relaxed);
          if (k.epilogue) k.epilogue();
        };
        if (sp.sharded()) {
          sim::for_each_device(sp.devices, run_shard);
        } else {
          run_shard(0);
        }
      }
      if (sweeps % 2 == 1) std::swap(a, b);
    }
    log_policy_decision(engine, opt.policy, r);
    return r;
  }

  typename ResidentBandTile<T>::Wiring proto;
  proto.arch = &arch;
  proto.src = a.data();
  proto.dst = a.data();
  proto.aux_global = aux != nullptr ? aux->data() : nullptr;
  proto.sweeps = sweeps;
  // Fused boundary sweeps: the first reads the global array and the last
  // stores to it, and both touch the same array. Neighbour j reads this
  // tile's edge units in its fused first sweep (sweep 0); this tile stores
  // them in its last sweep, which needs epoch sweeps - 1 >= 1 from j, and j
  // publishes epoch 1 only after that read. So every neighbour's read
  // happens-before the store from sweeps >= 2 on; at one sweep the read and
  // the store would be the same sweep. A post hook keeps the staged load
  // and drain: it must see every produced band in residence.
  proto.fused_first = !kHasPost && sweeps >= 2;
  proto.fused_last = !kHasPost;
  proto.lead = proto.fused_first ? 1 : 0;
  run_resident<T>(
      engine, g, proto, opt, ws, r,
      [&sweep](int, auto in, auto out, Index origin, Index store_off, Index band) {
        return sweep(in, out, origin, store_off, band);
      },
      [&bind_post](int, T* next, const T* cur, T* aux_band, Index band) {
        return bind_post(next, cur, aux_band, band);
      });
  return r;
}

}  // namespace detail

/// Runs `sweeps` stencil sweeps (each advancing `opt.t` fused time steps)
/// over `a`; the final state ends in `a`. `b` is scratch used only by the
/// relaunch fallback. The optional `post` hook
/// `post(GridView2D<T> next, GridView2D<const T> cur, GridView2D<T> aux)`
/// runs element-wise over each band right after its sweep (requires
/// opt.t == 1); `aux` is an optional second field kept resident with the
/// tile. Outputs are bit-identical to the per-step relaunch path.
template <typename T, typename PostFn = detail::NoPost>
PersistentRunStats iterate_stencil2d_persistent(const sim::ArchSpec& arch, Grid2D<T>& a,
                                                Grid2D<T>& b, const StencilShape<T>& shape,
                                                int sweeps,
                                                const PersistentOptions& opt = {},
                                                PostFn post = {}, Grid2D<T>* aux = nullptr,
                                                sim::PersistentWorkspace* ws = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>, "residence buffers hold raw elements");
  SSAM_REQUIRE(sweeps >= 0, "negative sweep count");
  SSAM_REQUIRE(a.width() == b.width() && a.height() == b.height(),
               "ping/pong grids must match");
  SSAM_REQUIRE(opt.device == nullptr || opt.shard.mode == ShardMode::kSingle,
               "a device-pinned run cannot also be sharded");
  if constexpr (!std::is_same_v<PostFn, detail::NoPost>) {
    SSAM_REQUIRE(opt.t == 1, "post hook requires t == 1 (halos carry post-processed state)");
  }
  if (aux != nullptr) {
    SSAM_REQUIRE(aux->width() == a.width() && aux->height() == a.height(),
                 "aux grid must match the state grid");
  }
  const SystolicPlan<T> plan = build_plan(shape.taps);
  const int p = choose_p(opt.p, opt.t, plan.rows_halo(), a.height());
  detail::RowBands g;
  g.units = a.height();
  g.unit_elems = a.width();
  g.w = a.width();
  g.ht = static_cast<Index>(-opt.t * plan.dy_min);
  g.hb = static_cast<Index>(opt.t * (plan.dy_min + plan.rows_halo()));
  g.align = static_cast<Index>(p);
  auto sweep = [&](GridView2D<const T> in, GridView2D<T> out, Index origin, Index store_off,
                   Index band) {
    return detail::make_stencil2d_sweep(plan, opt.t, p, opt.block_threads, in, out, origin,
                                        store_off, band);
  };
  PersistentRunStats r;
  r.sweeps = sweeps;
  r.t = opt.t;
  r.p = p;
  return detail::iterate_bands<T>("iterate_stencil2d", arch, g, a, b, sweeps, opt, sweep, post,
                                  aux, ws, r);
}

/// 3D variant: full-xy z-plane bands. Same contract as the 2D engine; the
/// post hook signature is
/// `post(GridView3D<T> next, GridView3D<const T> cur, GridView3D<T> aux)`
/// over each tile's band planes.
template <typename T, typename PostFn = detail::NoPost>
PersistentRunStats iterate_stencil3d_persistent(const sim::ArchSpec& arch, Grid3D<T>& a,
                                                Grid3D<T>& b, const StencilShape<T>& shape,
                                                int sweeps,
                                                const PersistentOptions& opt = {},
                                                PostFn post = {}, Grid3D<T>* aux = nullptr,
                                                sim::PersistentWorkspace* ws = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>, "residence buffers hold raw elements");
  SSAM_REQUIRE(sweeps >= 0, "negative sweep count");
  SSAM_REQUIRE(a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz(),
               "ping/pong grids must match");
  SSAM_REQUIRE(opt.device == nullptr || opt.shard.mode == ShardMode::kSingle,
               "a device-pinned run cannot also be sharded");
  if constexpr (!std::is_same_v<PostFn, detail::NoPost>) {
    SSAM_REQUIRE(opt.t == 1, "post hook requires t == 1 (halos carry post-processed state)");
  }
  if (aux != nullptr) {
    SSAM_REQUIRE(aux->nx() == a.nx() && aux->ny() == a.ny() && aux->nz() == a.nz(),
                 "aux grid must match the state grid");
  }
  const SystolicPlan<T> plan = build_plan(shape.taps);
  const int p = choose_p(opt.p, opt.t, plan.rows_halo(), a.ny(), opt.warps3d,
                         published_smem_rows<T>(arch, opt.warps3d, off_plane_passes(plan)));
  const int vp = opt.warps3d - 2 * opt.t * plan.rz();  // valid output planes per block
  detail::PlaneBands g;
  g.units = a.nz();
  g.unit_elems = a.nx() * a.ny();
  g.nx = a.nx();
  g.ny = a.ny();
  g.ht = static_cast<Index>(opt.t * plan.rz());
  g.hb = g.ht;
  g.align = static_cast<Index>(std::max(vp, 1));
  // The z-window stores only the band planes [origin, origin + band),
  // relocated by store_off into the output array. The pass schedule is
  // compiled once per run: every sweep copies the setup built for the first
  // view and re-places it (of the input view, only its depth reaches the
  // setup; nx and ny are the same in every view of a run).
  std::optional<detail::Stencil3dSetup<T>> base;
  std::optional<detail::Temporal3DSetup<T>> tbase;
  auto sweep = [&](GridView3D<const T> in, GridView3D<T> out, Index origin, Index store_off,
                   Index band) {
    SSAM_REQUIRE(vp > 0, "z block too shallow for t fused steps");
    const int grid_z = static_cast<int>(ceil_div(band, static_cast<Index>(vp)));
    detail::BandSweep k;
    if (opt.t == 1) {
      if (!base) base = detail::stencil3d_setup(arch, in, plan, Stencil3DOptions{p, opt.warps3d});
      detail::Stencil3dSetup<T> s = *base;
      s.nz = in.nz();
      s.z_origin = origin;
      s.z_store_lo = origin;
      s.z_store_hi = origin + band;
      s.z_store_offset = store_off;
      s.cfg.grid.z = grid_z;
      k.cfg = s.cfg;
      k.body = detail::make_stencil3d_body<T>(std::move(s), in, out);
    } else {
      if (!tbase) {
        tbase = detail::stencil3d_temporal_setup(arch, in, plan,
                                                 Temporal3DOptions{opt.t, p, opt.warps3d});
      }
      detail::Temporal3DSetup<T> s = *tbase;
      s.nz = in.nz();
      s.z_lo = origin;
      s.z_hi = origin + band;
      s.z_store_offset = store_off;
      s.cfg.grid.z = grid_z;
      k.cfg = s.cfg;
      k.body = detail::make_stencil3d_temporal_body<T>(std::move(s), in, out);
    }
    return k;
  };
  PersistentRunStats r;
  r.sweeps = sweeps;
  r.t = opt.t;
  r.p = p;
  return detail::iterate_bands<T>("iterate_stencil3d", arch, g, a, b, sweeps, opt, sweep, post,
                                  aux, ws, r);
}


/// Sharded variant of the per-step relaunch drivers (core/iterate.hpp):
/// the same double-buffered step schedule, with each sweep's band launches
/// distributed across the shard policy's virtual devices (seam-clipped
/// stores, one group barrier per sweep). One entry for both dimensions —
/// the grid type picks the engine (Grid3D exposes nz()) and the kernel
/// option struct contributes whichever knobs it has (StencilOptions:
/// block_threads; Stencil3DOptions: warps). Bit-identical to the
/// unsharded per-step drivers at every shard count; the final state ends
/// in `a`.
template <typename T, typename GridT, typename KernelOpt = StencilOptions>
PersistentRunStats iterate_stencil_sharded(const sim::ArchSpec& arch, GridT& a, GridT& b,
                                           const StencilShape<T>& shape, int steps,
                                           const ShardPolicy& shard,
                                           const KernelOpt& opt = {}) {
  PersistentOptions popt;
  popt.policy = IterationPolicy::kRelaunch;
  popt.shard = shard;
  popt.p = opt.p;
  if constexpr (requires { opt.block_threads; }) popt.block_threads = opt.block_threads;
  if constexpr (requires { opt.warps; }) popt.warps3d = opt.warps;
  if constexpr (requires(GridT& g) { g.nz(); }) {
    return iterate_stencil3d_persistent<T>(arch, a, b, shape, steps, popt);
  } else {
    return iterate_stencil2d_persistent<T>(arch, a, b, shape, steps, popt);
  }
}

}  // namespace ssam::core
