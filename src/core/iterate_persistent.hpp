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
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
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

/// One resident band tile: the dimension-agnostic state machine. A `unit`
/// is one contiguous row (2D) or plane (3D) of `unit_elems` elements; the
/// residence buffers hold ht + band + hb units, the band starting at unit
/// ht. The sweep bodies and the post hook are injected by the engine.
template <typename T>
class ResidentBandTile final : public sim::PersistentTask {
 public:
  /// One stage of a fused chain run (core/chain.hpp): its own launch
  /// geometry and body (stages differ in span/halo, so neither is shared),
  /// plus an optional fully-bound element-wise epilogue over the stage's
  /// output band. The epilogue runs before the boundary is published so
  /// consumers always see post-map state — the staged reference maps the
  /// whole intermediate grid before the next stage reads it.
  struct ChainSweep {
    sim::LaunchConfig cfg;
    std::function<void(sim::FunctionalBlockContext&)> body;
    std::function<void()> epilogue;
  };

  struct Wiring {
    const sim::ArchSpec* arch = nullptr;
    sim::LaunchConfig cfg;
    /// sweep[0] reads buf_a and writes buf_b; sweep[1] the reverse.
    std::function<void(sim::FunctionalBlockContext&)> sweep[2];
    /// Fused boundary sweeps: `first` reads the global array and writes
    /// buf_b (skips the staged load; engine sets it only when sweeps >= 2,
    /// see iterate_stencil2d_persistent for why that orders every fused
    /// final store after the neighbours' fused global reads); `last` reads
    /// buf_[(sweeps-1) % 2] and stores straight to the global array.
    /// Either may be empty: the staged kLoad/kDrain copies take over.
    std::function<void(sim::FunctionalBlockContext&)> sweep_first;
    std::function<void(sim::FunctionalBlockContext&)> sweep_last;
    /// Optional element-wise hook over the band (next, cur, aux pointers to
    /// the first band unit); null aux when no aux field is resident.
    std::function<void(T*, const T*, T*)> post;
    const T* src = nullptr;  ///< initial state (full array)
    T* dst = nullptr;        ///< final state target (full array)
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
    /// Chain mode (non-empty): sweep s runs chain[s] instead of the
    /// iteration bodies above — stage s's tile output feeds stage s + 1
    /// through the same epoch-counted channels (epoch s = stage s - 1
    /// output). Chain runs require src != dst, so the first sweep always
    /// reads the global input and the last always stores to the global
    /// output (both ends fused at ANY depth — iteration needs sweeps >= 2
    /// only because it aliases src and dst); the staged kLoad/kDrain
    /// copies and `sweep`/`sweep_first`/`sweep_last` are bypassed entirely.
    /// `sweeps` must equal chain.size().
    std::vector<ChainSweep> chain;
    /// Residence ring (core/shard.hpp): done flags of the previous
    /// occupants of this tile's slot and of each neighbour's slot (null:
    /// first occupant, free from the start), and this tile's own flag,
    /// raised once it no longer touches its slot.
    const std::atomic<bool>* slot_gate = nullptr;
    const std::atomic<bool>* lo_slot_gate = nullptr;
    const std::atomic<bool>* hi_slot_gate = nullptr;
    std::atomic<bool>* done_flag = nullptr;

    /// Wires tile i of `L`: residence buffers, the four channel ends, seam
    /// flags, counters (a device-pinned run's device when unsharded) and
    /// ring gates.
    void attach(const BandLayout& L, int i, sim::Device* pinned) {
      const auto u = static_cast<std::size_t>(i);
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

  explicit ResidentBandTile(Wiring w) : w_(std::move(w)) {}

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
        const bool staged = w_.chain.empty() && !w_.sweep_first;
        if (staged && !neighbour_slots_free()) return false;
        if (!w_.chain.empty()) {
          // Chain mode: the first sweep reads the global input (epoch 0
          // needs no publication) and nothing else is resident yet.
          state_ = State::kStep;
          return true;
        }
        if (!w_.sweep_first) {
          // Staged load: copy the band into residence and publish the
          // initial boundary as epoch 0. (With a fused first sweep the
          // global array itself serves as epoch 0.)
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
        const bool chain = !w_.chain.empty();
        const bool fused_first =
            s_ == 0 && (chain || static_cast<bool>(w_.sweep_first));
        const bool fused_last =
            s_ == w_.sweeps - 1 && (chain || static_cast<bool>(w_.sweep_last));
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
        if (chain) {
          const ChainSweep& cs = w_.chain[static_cast<std::size_t>(s_)];
          sim::run_grid_on_caller(*w_.arch, cs.cfg, cs.body);
        } else {
          const auto& body = fused_first ? w_.sweep_first
                             : fused_last ? w_.sweep_last
                                          : w_.sweep[flip_];
          sim::run_grid_on_caller(*w_.arch, w_.cfg, body);
        }
        if (w_.counters != nullptr) {
          w_.counters->sweeps.fetch_add(1, std::memory_order_relaxed);
        }
        // The consumed halos (epoch s_) free up for epoch s_ + 2.
        if (w_.in_lo != nullptr) w_.in_lo->release(s_);
        if (w_.in_hi != nullptr) w_.in_hi->release(s_);
        if (chain) {
          const ChainSweep& cs = w_.chain[static_cast<std::size_t>(s_)];
          if (cs.epilogue) cs.epilogue();
        } else if (w_.post) {
          w_.post(next_buf() + w_.ht * w_.unit_elems, cur_buf() + w_.ht * w_.unit_elems,
                  w_.aux_res);
        }
        if (will_publish) publish_boundaries(next_buf(), s_ + 1);
        flip_ ^= 1;
        ++s_;
        if (s_ == w_.sweeps) state_ = State::kDrain;
        return true;
      }
      case State::kDrain: {
        // Chain mode: the fused last sweep already stored to the global
        // output; nothing is staged.
        if (w_.chain.empty()) {
          if (!w_.sweep_last && w_.sweeps > 0) {
            copy_units(w_.dst + w_.u0 * w_.unit_elems, cur_buf() + w_.ht * w_.unit_elems,
                       w_.band);
          }
          if (w_.aux_res != nullptr) {
            copy_units(w_.aux_global + w_.u0 * w_.unit_elems, w_.aux_res, w_.band);
          }
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

/// Records what a persistent run's band layout resolved to.
inline void note_layout(PersistentRunStats& r, const BandLayout& L) {
  r.tiles = L.tiles();
  r.devices = L.sharded() ? static_cast<int>(L.devices.size()) : 1;
  r.sharded = L.sharded();
  r.persistent = true;
  r.ring_slots = L.ring_slots;
  r.residence_bytes = L.residence_bytes;
}

/// Runs the tiles of layout `L` to completion — one cooperative scheduler
/// on `lane` in single mode, one per device when sharded — then rethrows
/// what the run recorded on the calling thread.
template <typename T>
void run_band_tiles(const BandLayout& L,
                    const std::vector<std::unique_ptr<ResidentBandTile<T>>>& tile_objs,
                    ThreadPool& lane, RunControl& ctl) {
  std::vector<sim::PersistentTask*> tasks;
  tasks.reserve(tile_objs.size());
  for (const auto& t : tile_objs) tasks.push_back(t.get());
  if (!L.sharded()) {
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
  constexpr bool kHasPost = !std::is_same_v<PostFn, detail::NoPost>;
  SSAM_REQUIRE(sweeps >= 0, "negative sweep count");
  SSAM_REQUIRE(a.width() == b.width() && a.height() == b.height(),
               "ping/pong grids must match");
  SSAM_REQUIRE(opt.device == nullptr || opt.shard.mode == ShardMode::kSingle,
               "a device-pinned run cannot also be sharded");
  ThreadPool& lane = opt.device != nullptr ? opt.device->pool() : ThreadPool::global();
  if constexpr (kHasPost) {
    SSAM_REQUIRE(opt.t == 1, "post hook requires t == 1 (halos carry post-processed state)");
  }
  if (aux != nullptr) {
    SSAM_REQUIRE(aux->width() == a.width() && aux->height() == a.height(),
                 "aux grid must match the state grid");
  }
  const SystolicPlan<T> plan = build_plan(shape.taps);
  const Index w = a.width();
  const Index h = a.height();
  const int p = choose_p(opt.p, opt.t, plan.rows_halo(), h);
  const TemporalSsamOptions topt{opt.t, p, opt.block_threads};
  const StencilOptions sopt{p, opt.block_threads};
  const int dy_max = plan.dy_min + plan.rows_halo();
  const Index ht = static_cast<Index>(-opt.t * plan.dy_min);
  const Index hb = static_cast<Index>(opt.t * dy_max);
  const Index min_band = std::max<Index>({ht, hb, 1});
  PersistentRunStats r;
  r.sweeps = sweeps;
  r.t = opt.t;
  r.p = p;

  if (!detail::choose_persistent(opt.policy, sweeps)) {
    const detail::ShardSplit sp =
        detail::split_shards(h, opt.shard, static_cast<Index>(p), min_band);
    r.devices = sp.sharded() ? sp.shards() : 1;
    r.sharded = sp.sharded();
    if (sweeps > 0 && sp.sharded()) {
      // Sharded relaunch: each device sweeps its shard's rows of the global
      // grids on its own pool, using the same origin-shifted bodies the
      // persistent engine uses for fused boundary sweeps, with the store
      // clipped at the shard seam (rows past the band belong to the next
      // device). One group barrier per sweep keeps the global arrays
      // consistent, so seam reads come straight from them and results are
      // bit-identical to the single-pool per-step path.
      const int shards = sp.shards();
      std::vector<sim::LaunchConfig> cfgs(static_cast<std::size_t>(shards));
      std::array<std::vector<std::function<void(sim::FunctionalBlockContext&)>>, 2>
          bodies;
      bodies[0].resize(static_cast<std::size_t>(shards));
      bodies[1].resize(static_cast<std::size_t>(shards));
      for (int s = 0; s < shards; ++s) {
        const Index y0 = sp.starts[static_cast<std::size_t>(s)];
        const Index band = sp.starts[static_cast<std::size_t>(s) + 1] - y0;
        const GridView2D<T> out_b(b.data(), w, y0 + band, w);
        const GridView2D<T> out_a(a.data(), w, y0 + band, w);
        auto make = [&](GridView2D<const T> in, GridView2D<T> out) {
          if (opt.t == 1) {
            detail::Stencil2dSetup st = detail::stencil2d_setup(in, plan, sopt);
            st.row_origin = y0;
            st.cfg.grid.y = static_cast<int>(ceil_div(band, static_cast<Index>(p)));
            cfgs[static_cast<std::size_t>(s)] = st.cfg;
            return std::function<void(sim::FunctionalBlockContext&)>(
                detail::make_stencil2d_body<T>(st, in, plan.passes.front(), out));
          }
          detail::Stencil2dSetup st = detail::stencil2d_temporal_setup(in, plan, topt);
          st.row_origin = y0;
          st.cfg.grid.y = static_cast<int>(ceil_div(band, static_cast<Index>(p)));
          cfgs[static_cast<std::size_t>(s)] = st.cfg;
          return std::function<void(sim::FunctionalBlockContext&)>(
              detail::make_stencil2d_temporal_body<T>(st, in, plan.passes.front(), opt.t,
                                                      plan.rows_halo(), out));
        };
        bodies[0][static_cast<std::size_t>(s)] = make(a.cview(), out_b);
        bodies[1][static_cast<std::size_t>(s)] = make(b.cview(), out_a);
      }
      for (int sw = 0; sw < sweeps; ++sw) {
        detail::relaunch_sweep_gate(opt.cancel, -1);
        const int parity = sw % 2;
        sim::for_each_device(sp.devices, [&](int s) {
          sim::detail::run_functional_grid_on(
              sp.devices[static_cast<std::size_t>(s)]->pool(), arch,
              cfgs[static_cast<std::size_t>(s)],
              bodies[static_cast<std::size_t>(parity)][static_cast<std::size_t>(s)]);
          if constexpr (kHasPost) {
            const Index y0 = sp.starts[static_cast<std::size_t>(s)];
            const Index band = sp.starts[static_cast<std::size_t>(s) + 1] - y0;
            Grid2D<T>& nxt = parity == 0 ? b : a;
            Grid2D<T>& cur = parity == 0 ? a : b;
            post(GridView2D<T>(nxt.data() + y0 * w, w, band, w),
                 GridView2D<const T>(cur.data() + y0 * w, w, band, w),
                 aux != nullptr ? GridView2D<T>(aux->data() + y0 * w, w, band, w)
                                : GridView2D<T>{});
          }
        });
      }
      if (sweeps % 2 == 1) std::swap(a, b);
    } else if (sweeps > 0) {
      // The functional fan-out goes through `lane` directly so a
      // device-pinned relaunch run (server dispatch) stays on its device's
      // slice; on the global pool this is exactly what sim::launch does in
      // functional mode.
      auto run_sweeps = [&](const sim::LaunchConfig& cfg, auto& ping, auto& pong) {
        const int dev = opt.device != nullptr ? opt.device->index() : -1;
        for (int sw = 0; sw < sweeps; ++sw) {
          detail::relaunch_sweep_gate(opt.cancel, dev);
          if (sw % 2 == 0) {
            sim::detail::run_functional_grid_on(lane, arch, cfg, ping);
          } else {
            sim::detail::run_functional_grid_on(lane, arch, cfg, pong);
          }
          if (opt.device != nullptr) {
            opt.device->counters().sweeps.fetch_add(1, std::memory_order_relaxed);
          }
          if constexpr (kHasPost) {
            Grid2D<T>& nxt = (sw % 2 == 0) ? b : a;
            Grid2D<T>& cur = (sw % 2 == 0) ? a : b;
            post(nxt.view(), cur.cview(),
                 aux != nullptr ? aux->view() : GridView2D<T>{});
          }
        }
        if (sweeps % 2 == 1) std::swap(a, b);
      };
      if (opt.t == 1) {
        const detail::Stencil2dSetup s = detail::stencil2d_setup(a.cview(), plan, sopt);
        auto ping = detail::make_stencil2d_body<T>(s, a.cview(), plan.passes.front(),
                                                   b.view());
        auto pong = detail::make_stencil2d_body<T>(s, b.cview(), plan.passes.front(),
                                                   a.view());
        run_sweeps(s.cfg, ping, pong);
      } else {
        const detail::Stencil2dSetup s =
            detail::stencil2d_temporal_setup(a.cview(), plan, topt);
        auto ping = detail::make_stencil2d_temporal_body<T>(
            s, a.cview(), plan.passes.front(), opt.t, plan.rows_halo(), b.view());
        auto pong = detail::make_stencil2d_temporal_body<T>(
            s, b.cview(), plan.passes.front(), opt.t, plan.rows_halo(), a.view());
        run_sweeps(s.cfg, ping, pong);
      }
    }
    detail::log_policy_decision("iterate_stencil2d", opt.policy, r);
    return r;
  }

  detail::BandLayoutRequest req;
  req.units = h;
  req.unit_elems = w;
  req.elem_bytes = sizeof(T);
  req.ht = ht;
  req.hb = hb;
  req.align = static_cast<Index>(p);
  req.min_band = min_band;
  req.want_tiles = opt.tiles;
  req.sweeps = sweeps;
  req.has_aux = aux != nullptr;
  req.lane_workers = opt.device != nullptr ? opt.device->pool().size() : 0;
  sim::PersistentWorkspace& wsp = ws != nullptr ? *ws : detail::default_workspace();
  const detail::BandLayout L = detail::build_band_layout(req, opt.shard, wsp);
  const int tiles = L.tiles();
  detail::note_layout(r, L);
  detail::log_policy_decision("iterate_stencil2d", opt.policy, r);
  if (sweeps == 0) return r;
  const std::vector<Index>& starts = L.starts;

  detail::RunControl ctl;
  ctl.cancel = opt.cancel;
  ctl.device = opt.device != nullptr ? opt.device->index() : -1;
  ctl.faults = FaultInjector::global().enabled();

  std::vector<std::unique_ptr<detail::ResidentBandTile<T>>> tile_objs;
  tile_objs.reserve(static_cast<std::size_t>(tiles));
  for (int i = 0; i < tiles; ++i) {
    const Index y0 = starts[static_cast<std::size_t>(i)];
    const Index band = starts[static_cast<std::size_t>(i) + 1] - y0;
    const Index buf_rows = ht + band + hb;
    typename detail::ResidentBandTile<T>::Wiring wr;
    wr.arch = &arch;
    wr.src = a.data();
    wr.dst = a.data();
    wr.unit_elems = w;
    wr.band = band;
    wr.ht = ht;
    wr.hb = hb;
    wr.u0 = y0;
    wr.sweeps = sweeps;
    wr.attach(L, i, opt.device);
    if (aux != nullptr) wr.aux_global = aux->data();
    wr.control = &ctl;

    const GridView2D<const T> in_a(wr.buf_a, w, buf_rows, w);
    const GridView2D<const T> in_b(wr.buf_b, w, buf_rows, w);
    // Store views end at the band so the halo rows of the target buffer are
    // never written by the sweep (the next exchange fills them).
    const GridView2D<T> out_a(wr.buf_a, w, ht + band, w);
    const GridView2D<T> out_b(wr.buf_b, w, ht + band, w);
    const GridView2D<T> out_global(a.data(), w, y0 + band, w);
    const int grid_y = static_cast<int>(ceil_div(band, static_cast<Index>(p)));
    const int last_parity = (sweeps - 1) % 2;
    auto make_body = [&](Index origin, Index store_off, GridView2D<const T> in,
                         GridView2D<T> out) {
      if (opt.t == 1) {
        detail::Stencil2dSetup s = detail::stencil2d_setup(in, plan, sopt);
        s.row_origin = origin;
        s.store_row_offset = store_off;
        s.cfg.grid.y = grid_y;
        wr.cfg = s.cfg;
        return std::function<void(sim::FunctionalBlockContext&)>(
            detail::make_stencil2d_body<T>(s, in, plan.passes.front(), out));
      }
      detail::Stencil2dSetup s = detail::stencil2d_temporal_setup(in, plan, topt);
      s.row_origin = origin;
      s.store_row_offset = store_off;
      s.cfg.grid.y = grid_y;
      wr.cfg = s.cfg;
      return std::function<void(sim::FunctionalBlockContext&)>(
          detail::make_stencil2d_temporal_body<T>(s, in, plan.passes.front(), opt.t,
                                                  plan.rows_halo(), out));
    };
    wr.sweep[0] = make_body(ht, 0, in_a, out_b);
    wr.sweep[1] = make_body(ht, 0, in_b, out_a);
    if constexpr (!kHasPost) {
      // Fused boundary sweeps (see Wiring): first reads the global array,
      // last stores to it, and both touch the same array. Neighbour j reads
      // this tile's edge rows in its fused first sweep (sweep 0); this tile
      // stores them in its last sweep, which needs epoch sweeps - 1 >= 1
      // from j, and j publishes epoch 1 only after that read. So every
      // neighbour's read happens-before the store from sweeps >= 2 on; at
      // one sweep the read and the store would be the same sweep.
      if (sweeps >= 2) {
        wr.sweep_first = make_body(y0, ht - y0, a.cview(), out_b);
      }
      wr.sweep_last = make_body(ht, y0 - ht, last_parity == 0 ? in_a : in_b, out_global);
    }
    if constexpr (kHasPost) {
      wr.post = [post, w, band](T* nb, const T* cb, T* ab) {
        post(GridView2D<T>(nb, w, band, w), GridView2D<const T>(cb, w, band, w),
             GridView2D<T>(ab, w, ab != nullptr ? band : 0, w));
      };
    }
    tile_objs.push_back(std::make_unique<detail::ResidentBandTile<T>>(std::move(wr)));
  }

  detail::run_band_tiles(L, tile_objs, lane, ctl);
  return r;
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
  constexpr bool kHasPost = !std::is_same_v<PostFn, detail::NoPost>;
  SSAM_REQUIRE(sweeps >= 0, "negative sweep count");
  SSAM_REQUIRE(a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz(),
               "ping/pong grids must match");
  SSAM_REQUIRE(opt.device == nullptr || opt.shard.mode == ShardMode::kSingle,
               "a device-pinned run cannot also be sharded");
  ThreadPool& lane = opt.device != nullptr ? opt.device->pool() : ThreadPool::global();
  if constexpr (kHasPost) {
    SSAM_REQUIRE(opt.t == 1, "post hook requires t == 1 (halos carry post-processed state)");
  }
  if (aux != nullptr) {
    SSAM_REQUIRE(aux->nx() == a.nx() && aux->ny() == a.ny() && aux->nz() == a.nz(),
                 "aux grid must match the state grid");
  }
  const SystolicPlan<T> plan = build_plan(shape.taps);
  const int p = choose_p(opt.p, opt.t, plan.rows_halo(), a.ny(), opt.warps3d,
                         published_smem_rows<T>(arch, opt.warps3d, off_plane_passes(plan)));
  const Temporal3DOptions topt{opt.t, p, opt.warps3d};
  const Stencil3DOptions sopt{p, opt.warps3d};
  const Index nx = a.nx();
  const Index ny = a.ny();
  const Index nz = a.nz();
  const Index plane = nx * ny;
  const Index hz = static_cast<Index>(opt.t * plan.rz());
  const int vp = opt.warps3d - 2 * opt.t * plan.rz();
  const Index align3 = static_cast<Index>(std::max(vp, 1));
  PersistentRunStats r;
  r.sweeps = sweeps;
  r.t = opt.t;
  r.p = p;

  if (!detail::choose_persistent(opt.policy, sweeps)) {
    const detail::ShardSplit sp =
        detail::split_shards(nz, opt.shard, align3, std::max<Index>(hz, 1));
    r.devices = sp.sharded() ? sp.shards() : 1;
    r.sharded = sp.sharded();
    if (sweeps > 0 && sp.sharded()) {
      // Sharded relaunch in 3D: per-device z-band launches over the global
      // grids with the store window clipped at the shard seam, one group
      // barrier per sweep (see the 2D engine for the parity argument).
      SSAM_REQUIRE(vp > 0, "z block too shallow for t fused steps");
      const int shards = sp.shards();
      std::vector<sim::LaunchConfig> cfgs(static_cast<std::size_t>(shards));
      std::array<std::vector<std::function<void(sim::FunctionalBlockContext&)>>, 2>
          bodies;
      bodies[0].resize(static_cast<std::size_t>(shards));
      bodies[1].resize(static_cast<std::size_t>(shards));
      for (int s = 0; s < shards; ++s) {
        const Index z0 = sp.starts[static_cast<std::size_t>(s)];
        const Index band = sp.starts[static_cast<std::size_t>(s) + 1] - z0;
        auto make = [&](GridView3D<const T> in, GridView3D<T> out) {
          if (opt.t == 1) {
            detail::Stencil3dSetup<T> st = detail::stencil3d_setup(arch, in, plan, sopt);
            st.z_origin = z0;
            st.z_store_lo = z0;
            st.z_store_hi = z0 + band;
            st.cfg.grid.z = static_cast<int>(ceil_div(band, static_cast<Index>(vp)));
            cfgs[static_cast<std::size_t>(s)] = st.cfg;
            return std::function<void(sim::FunctionalBlockContext&)>(
                detail::make_stencil3d_body<T>(std::move(st), in, out));
          }
          detail::Temporal3DSetup<T> st =
              detail::stencil3d_temporal_setup(arch, in, plan, topt, {z0, band});
          cfgs[static_cast<std::size_t>(s)] = st.cfg;
          return std::function<void(sim::FunctionalBlockContext&)>(
              detail::make_stencil3d_temporal_body<T>(std::move(st), in, out));
        };
        bodies[0][static_cast<std::size_t>(s)] = make(a.cview(), b.view());
        bodies[1][static_cast<std::size_t>(s)] = make(b.cview(), a.view());
      }
      for (int sw = 0; sw < sweeps; ++sw) {
        detail::relaunch_sweep_gate(opt.cancel, -1);
        const int parity = sw % 2;
        sim::for_each_device(sp.devices, [&](int s) {
          sim::detail::run_functional_grid_on(
              sp.devices[static_cast<std::size_t>(s)]->pool(), arch,
              cfgs[static_cast<std::size_t>(s)],
              bodies[static_cast<std::size_t>(parity)][static_cast<std::size_t>(s)]);
          if constexpr (kHasPost) {
            const Index z0 = sp.starts[static_cast<std::size_t>(s)];
            const Index band = sp.starts[static_cast<std::size_t>(s) + 1] - z0;
            Grid3D<T>& nxt = parity == 0 ? b : a;
            Grid3D<T>& cur = parity == 0 ? a : b;
            post(GridView3D<T>(nxt.data() + z0 * plane, nx, ny, band),
                 GridView3D<const T>(cur.data() + z0 * plane, nx, ny, band),
                 aux != nullptr
                     ? GridView3D<T>(aux->data() + z0 * plane, nx, ny, band)
                     : GridView3D<T>{});
          }
        });
      }
      if (sweeps % 2 == 1) std::swap(a, b);
    } else if (sweeps > 0) {
      // Device-pinned relaunch runs fan out over `lane` (see the 2D engine).
      auto run_sweeps = [&](const sim::LaunchConfig& cfg, auto& ping, auto& pong) {
        const int dev = opt.device != nullptr ? opt.device->index() : -1;
        for (int sw = 0; sw < sweeps; ++sw) {
          detail::relaunch_sweep_gate(opt.cancel, dev);
          if (sw % 2 == 0) {
            sim::detail::run_functional_grid_on(lane, arch, cfg, ping);
          } else {
            sim::detail::run_functional_grid_on(lane, arch, cfg, pong);
          }
          if (opt.device != nullptr) {
            opt.device->counters().sweeps.fetch_add(1, std::memory_order_relaxed);
          }
          if constexpr (kHasPost) {
            Grid3D<T>& nxt = (sw % 2 == 0) ? b : a;
            Grid3D<T>& cur = (sw % 2 == 0) ? a : b;
            post(nxt.view(), cur.cview(),
                 aux != nullptr ? aux->view() : GridView3D<T>{});
          }
        }
        if (sweeps % 2 == 1) std::swap(a, b);
      };
      if (opt.t == 1) {
        detail::Stencil3dSetup<T> s = detail::stencil3d_setup(arch, a.cview(), plan, sopt);
        const sim::LaunchConfig cfg = s.cfg;
        auto ping = detail::make_stencil3d_body<T>(s, a.cview(), b.view());
        auto pong = detail::make_stencil3d_body<T>(std::move(s), b.cview(), a.view());
        run_sweeps(cfg, ping, pong);
      } else {
        detail::Temporal3DSetup<T> s =
            detail::stencil3d_temporal_setup(arch, a.cview(), plan, topt);
        const sim::LaunchConfig cfg = s.cfg;
        auto ping = detail::make_stencil3d_temporal_body<T>(s, a.cview(), b.view());
        auto pong = detail::make_stencil3d_temporal_body<T>(std::move(s), b.cview(), a.view());
        run_sweeps(cfg, ping, pong);
      }
    }
    detail::log_policy_decision("iterate_stencil3d", opt.policy, r);
    return r;
  }

  SSAM_REQUIRE(vp > 0, "z block too shallow for t fused steps");
  detail::BandLayoutRequest req;
  req.units = nz;
  req.unit_elems = plane;
  req.elem_bytes = sizeof(T);
  req.ht = hz;
  req.hb = hz;
  req.align = align3;
  req.min_band = std::max<Index>(hz, 1);
  req.want_tiles = opt.tiles;
  req.sweeps = sweeps;
  req.has_aux = aux != nullptr;
  req.lane_workers = opt.device != nullptr ? opt.device->pool().size() : 0;
  sim::PersistentWorkspace& wsp = ws != nullptr ? *ws : detail::default_workspace();
  const detail::BandLayout L = detail::build_band_layout(req, opt.shard, wsp);
  const int tiles = L.tiles();
  detail::note_layout(r, L);
  detail::log_policy_decision("iterate_stencil3d", opt.policy, r);
  if (sweeps == 0) return r;
  const std::vector<Index>& starts = L.starts;

  detail::RunControl ctl;
  ctl.cancel = opt.cancel;
  ctl.device = opt.device != nullptr ? opt.device->index() : -1;
  ctl.faults = FaultInjector::global().enabled();

  std::vector<std::unique_ptr<detail::ResidentBandTile<T>>> tile_objs;
  tile_objs.reserve(static_cast<std::size_t>(tiles));
  for (int i = 0; i < tiles; ++i) {
    const Index z0 = starts[static_cast<std::size_t>(i)];
    const Index band = starts[static_cast<std::size_t>(i) + 1] - z0;
    const Index buf_planes = band + 2 * hz;
    typename detail::ResidentBandTile<T>::Wiring wr;
    wr.arch = &arch;
    wr.src = a.data();
    wr.dst = a.data();
    wr.unit_elems = plane;
    wr.band = band;
    wr.ht = hz;
    wr.hb = hz;
    wr.u0 = z0;
    wr.sweeps = sweeps;
    wr.attach(L, i, opt.device);
    if (aux != nullptr) wr.aux_global = aux->data();
    wr.control = &ctl;

    const GridView3D<const T> in_a(wr.buf_a, nx, ny, buf_planes);
    const GridView3D<const T> in_b(wr.buf_b, nx, ny, buf_planes);
    const GridView3D<T> out_a(wr.buf_a, nx, ny, buf_planes);
    const GridView3D<T> out_b(wr.buf_b, nx, ny, buf_planes);
    const GridView3D<T> out_global = a.view();
    const int last_parity = (sweeps - 1) % 2;
    // The z-window stores only the band planes; the target buffer's halo
    // planes are filled by the next exchange. `z0_load` positions the
    // window in the input array (buffer: hz, global: z0); `store_off`
    // relocates the store into the other array for the fused sweeps.
    auto make_body = [&](Index z0_load, Index store_off, GridView3D<const T> in,
                         GridView3D<T> out) {
      if (opt.t == 1) {
        detail::Stencil3dSetup<T> s = detail::stencil3d_setup(arch, in, plan, sopt);
        s.z_origin = z0_load;
        s.z_store_lo = z0_load;
        s.z_store_hi = z0_load + band;
        s.z_store_offset = store_off;
        s.cfg.grid.z = static_cast<int>(ceil_div(band, static_cast<Index>(vp)));
        wr.cfg = s.cfg;
        return std::function<void(sim::FunctionalBlockContext&)>(
            detail::make_stencil3d_body<T>(std::move(s), in, out));
      }
      detail::Temporal3DSetup<T> s =
          detail::stencil3d_temporal_setup(arch, in, plan, topt, {z0_load, band});
      s.z_store_offset = store_off;
      wr.cfg = s.cfg;
      return std::function<void(sim::FunctionalBlockContext&)>(
          detail::make_stencil3d_temporal_body<T>(std::move(s), in, out));
    };
    wr.sweep[0] = make_body(hz, 0, in_a, out_b);
    wr.sweep[1] = make_body(hz, 0, in_b, out_a);
    if constexpr (!kHasPost) {
      // Fused boundary sweeps from sweeps >= 2 (ordering: see the 2D engine).
      if (sweeps >= 2) {
        wr.sweep_first = make_body(z0, hz - z0, a.cview(), out_b);
      }
      wr.sweep_last = make_body(hz, z0 - hz, last_parity == 0 ? in_a : in_b, out_global);
    }
    if constexpr (kHasPost) {
      wr.post = [post, nx, ny, band](T* nb, const T* cb, T* ab) {
        post(GridView3D<T>(nb, nx, ny, band), GridView3D<const T>(cb, nx, ny, band),
             GridView3D<T>(ab, nx, ny, ab != nullptr ? band : 0));
      };
    }
    tile_objs.push_back(std::make_unique<detail::ResidentBandTile<T>>(std::move(wr)));
  }

  detail::run_band_tiles(L, tile_objs, lane, ctl);
  return r;
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
