// Domain sharding across virtual devices.
//
// The persistent iteration engine (core/iterate_persistent.hpp) decomposes
// a grid into resident band tiles on ONE worker pool. This layer adds the
// level above: a `ShardPolicy` splits the same band axis (rows in 2D,
// z-planes in 3D) into contiguous *shards*, places each shard on its own
// virtual device (gpusim/device.hpp — a pool slice with its own workspace
// arena and counters), and wires the two tiles that meet at a shard seam
// with a *peer* halo channel from the device group. Peer channels are the
// identical epoch-counted SPSC machinery used inside a shard, configured
// zero-copy: a boundary published on device d is written directly into the
// halo region of the neighbouring tile's residence buffer on device d+1,
// so inter-device exchange costs one memcpy and two atomic counters — no
// global-array round trip, no staging copy.
//
// Sharding never changes results: every tile still computes the same band
// rows from the same halo state, so sharded runs are bit-identical to
// single-device runs at every shard count and policy — the invariant the
// randomized differential suite (tests/test_sharding.cpp) enforces.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "gpusim/device.hpp"

namespace ssam::core {

/// Whether an iterative run stays on one pool or is sharded across virtual
/// devices.
enum class ShardMode { kSingle, kSharded };

struct ShardPolicy {
  ShardMode mode = ShardMode::kSingle;
  /// Sharded: target device count; 0 = sim::default_device_count()
  /// (SSAM_DEVICES). Clamped to what the domain and the group can host.
  int devices = 0;
  /// Explicit device group (bench/test hook). Null: DeviceGroup::shared(n).
  sim::DeviceGroup* group = nullptr;

  [[nodiscard]] static ShardPolicy single() { return {}; }
  [[nodiscard]] static ShardPolicy sharded(int n = 0, sim::DeviceGroup* g = nullptr) {
    return {ShardMode::kSharded, n, g};
  }
};

namespace detail {

/// Band partition of `n` units into at most `want` tiles, each a multiple
/// of `align` units (except possibly the last) and at least `min_band`
/// units. Returns the first unit of each tile plus the end sentinel. Used
/// both for tiles within a shard and for the shard split itself.
[[nodiscard]] inline std::vector<Index> partition_bands(Index n, int want, Index align,
                                                        Index min_band) {
  align = align < 1 ? 1 : align;
  min_band = std::max<Index>({min_band, align, 1});
  int tiles = std::max(1, want);
  tiles = static_cast<int>(std::min<Index>(tiles, std::max<Index>(1, n / min_band)));
  Index per = static_cast<Index>(ceil_div(n, static_cast<Index>(tiles)));
  per = static_cast<Index>(ceil_div(per, align)) * align;
  tiles = static_cast<int>(ceil_div(n, per));
  // A too-short trailing band cannot source its neighbour's halo: merge it.
  if (tiles > 1 && n - static_cast<Index>(tiles - 1) * per < min_band) --tiles;
  std::vector<Index> starts(static_cast<std::size_t>(tiles) + 1);
  for (int i = 0; i < tiles; ++i) starts[static_cast<std::size_t>(i)] = i * per;
  starts[static_cast<std::size_t>(tiles)] = n;
  return starts;
}

/// Auto tile count for one pool of `workers`: enough tiles that each
/// residence buffer stays around kTargetResidenceBytes (measured sweet
/// spot: a ping/pong pair fits the owner's private cache, so consecutive
/// sweeps of a burst run out of L2), but never fewer than two tiles per
/// worker.
inline constexpr std::size_t kTargetResidenceBytes = std::size_t{512} << 10;

[[nodiscard]] inline int auto_tiles_for(int workers, Index units, std::size_t unit_bytes) {
  const Index desired_band = std::max<Index>(
      1, static_cast<Index>(kTargetResidenceBytes / std::max<std::size_t>(unit_bytes, 1)));
  const auto by_size = static_cast<int>(ceil_div(units, desired_band));
  return std::max(2 * workers, by_size);
}

/// The shard split of one run: contiguous unit ranges and the device that
/// owns each. Single mode: one range, no devices (the run stays on the
/// global pool).
struct ShardSplit {
  std::vector<Index> starts;          ///< shard starts + end sentinel
  std::vector<sim::Device*> devices;  ///< empty in single mode
  sim::DeviceGroup* group = nullptr;  ///< null in single mode

  [[nodiscard]] int shards() const { return static_cast<int>(starts.size()) - 1; }
  [[nodiscard]] bool sharded() const { return group != nullptr; }
};

[[nodiscard]] inline ShardSplit split_shards(Index units, const ShardPolicy& shard,
                                             Index align, Index min_band) {
  ShardSplit sp;
  if (shard.mode != ShardMode::kSharded) {
    sp.starts = {0, units};
    return sp;
  }
  const int want = shard.devices > 0 ? shard.devices : sim::default_device_count();
  sp.group = shard.group != nullptr ? shard.group : &sim::DeviceGroup::shared(want);
  const int avail = std::min(want, sp.group->size());
  // The partitioner clamps further when the domain cannot host `avail`
  // min_band-sized shards — "shard count > tile count" degrades gracefully
  // to fewer (possibly one) shards instead of empty devices.
  sp.starts = partition_bands(units, avail, align, min_band);
  sp.devices.reserve(static_cast<std::size_t>(sp.shards()));
  for (int s = 0; s < sp.shards(); ++s) sp.devices.push_back(&sp.group->device(s));
  return sp;
}

/// Residence ring depth of one shard: the slot pairs a run of `sweeps`
/// sweeps (or chain stages) on `workers` workers keeps in residence at
/// once. Tile i of a shard lives in slot i mod R, so a DRAM-sized grid
/// streams through a cache-sized ring instead of carving a buffer pair per
/// tile (PERKS residency pays only while the resident set fits in cache).
///
/// Floor, sweeps + 2: the lowest unfinished tile j needs the tiles up to
/// j + sweeps loaded and publishing, and those publish into slots up to
/// j + sweeps + 1 — all free once every tile below j is done. Above the
/// floor every extra slot is one more tile in flight: with R slots about
/// R - sweeps tiles can advance concurrently. The per-worker slack keeps
/// enough of them per worker that owners rarely stall on the wavefront.
/// Measured on 2-sweep star-2 runs over a 20480x16384 float grid on 4
/// workers (docs/architecture.md): 4 slots 1.05, 12 slots 1.63, 36 slots
/// 2.48, 64 slots 2.66-2.84, 124 slots 2.68 Gcell/s.
inline constexpr int kRingSlackPerWorker = 15;

[[nodiscard]] inline int ring_slots_for(int sweeps, int workers) {
  return std::max(sweeps, 0) + 2 + kRingSlackPerWorker * std::max(workers, 1);
}

/// Geometry request of one sharded (or single) persistent band run. All
/// sizes are in units (rows or planes) and bytes, so one builder serves the
/// 2D and 3D engines.
struct BandLayoutRequest {
  Index units = 0;            ///< total units on the band axis
  Index unit_elems = 0;       ///< elements per unit (row width or plane size)
  std::size_t elem_bytes = 0; ///< sizeof(T)
  Index ht = 0;               ///< halo units above each band
  Index hb = 0;               ///< halo units below
  Index align = 1;            ///< preferred band multiple (p or valid planes)
  Index min_band = 1;         ///< smallest band that can source a halo
  int want_tiles = 0;         ///< total tile target; 0 = auto per shard
  int sweeps = 0;             ///< sweeps (chain: stages); sizes the ring
  bool has_aux = false;       ///< carve an aux residence buffer per slot
  /// Single mode: workers of the pool the run executes on, when it is not
  /// the global pool (a device-pinned server job). 0 = global pool size.
  int lane_workers = 0;
};

/// The assembled layout: tile starts, per-tile residence buffers carved
/// from the owning device's arena (or the single workspace), and the
/// channel pool — seam channels included, wired zero-copy into the
/// neighbouring tile's buffers exactly like intra-shard channels.
///
/// Residence is a ring per shard: `ring_slots_for` slot pairs, tile i of a
/// shard in slot i mod R, so buf_a/buf_b/aux of tiles R apart alias. A tile
/// may use its slot only once the slot's previous occupant `ring_prev[i]`
/// is done, and a neighbour may publish into it under the same condition
/// (`slot_gate`). With tiles <= R every tile is its slot's first occupant
/// and the layout is one buffer pair per tile.
struct BandLayout {
  std::vector<Index> starts;              ///< tile starts + end sentinel
  std::vector<int> device_of;             ///< owning shard per tile
  std::vector<std::pair<int, int>> tile_range;  ///< per shard: [begin, end) tiles
  std::vector<std::byte*> buf_a;
  std::vector<std::byte*> buf_b;
  std::vector<std::byte*> aux;
  std::span<sim::HaloChannel> chans;      ///< 2 * (tiles - 1)
  std::vector<sim::Device*> devices;      ///< empty in single mode
  std::vector<int> ring_prev;             ///< previous slot occupant; -1: none
  std::unique_ptr<std::atomic<bool>[]> done;  ///< per tile: drained, slot free
  int ring_slots = 0;                     ///< slot pairs of the widest shard ring
  std::size_t residence_bytes = 0;        ///< arena bytes carved, all shards

  [[nodiscard]] int tiles() const { return static_cast<int>(starts.size()) - 1; }
  [[nodiscard]] bool sharded() const { return !devices.empty(); }
  /// True when the channel pair between tiles i and i+1 crosses a seam.
  [[nodiscard]] bool seam_after(int i) const {
    return sharded() && device_of[static_cast<std::size_t>(i)] !=
                            device_of[static_cast<std::size_t>(i) + 1];
  }
  [[nodiscard]] sim::DeviceCounters* counters_of(int tile) const {
    if (!sharded()) return nullptr;
    return &devices[static_cast<std::size_t>(device_of[static_cast<std::size_t>(tile)])]
                ->counters();
  }
  /// Done flag of the tile that held tile i's slot before it; null when i
  /// is the slot's first occupant (free from the start).
  [[nodiscard]] const std::atomic<bool>* slot_gate(int i) const {
    const int prev = ring_prev[static_cast<std::size_t>(i)];
    return prev < 0 ? nullptr : &done[static_cast<std::size_t>(prev)];
  }
};

/// Splits the domain into shards and tiles, carves every shard's residence
/// ring (single mode: from `ws`; sharded: from each owning device's
/// workspace arena), and wires all tile-to-tile channels (intra-shard from
/// the same pool as seams — the group's peer channels — so the engine
/// treats every edge uniformly).
[[nodiscard]] inline BandLayout build_band_layout(const BandLayoutRequest& req,
                                                  const ShardPolicy& shard,
                                                  sim::PersistentWorkspace& ws) {
  const Index skew_elems = 1024 + 16;  // break page-set aliasing between buffers
  const std::size_t unit_bytes =
      static_cast<std::size_t>(req.unit_elems) * req.elem_bytes;
  const std::size_t skew_bytes = static_cast<std::size_t>(skew_elems) * req.elem_bytes;

  BandLayout L;
  ShardSplit sp = split_shards(req.units, shard, req.align, req.min_band);
  const int shards = sp.shards();
  L.devices = std::move(sp.devices);

  // Tiles within each shard, concatenated in global band order.
  std::vector<int> workers(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    const Index u0 = sp.starts[static_cast<std::size_t>(s)];
    const Index su = sp.starts[static_cast<std::size_t>(s) + 1] - u0;
    workers[static_cast<std::size_t>(s)] =
        L.devices.empty()
            ? (req.lane_workers > 0 ? req.lane_workers : ThreadPool::global().size())
            : L.devices[static_cast<std::size_t>(s)]->pool().size();
    const int want = req.want_tiles > 0
                         ? std::max(1, (req.want_tiles + shards - 1) / shards)
                         : auto_tiles_for(workers[static_cast<std::size_t>(s)], su,
                                          unit_bytes);
    const std::vector<Index> t = partition_bands(su, want, req.align, req.min_band);
    const int begin = static_cast<int>(L.starts.size());
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      L.starts.push_back(u0 + t[i]);
      L.device_of.push_back(s);
    }
    L.tile_range.emplace_back(begin, static_cast<int>(L.starts.size()));
  }
  L.starts.push_back(req.units);
  const int tiles = L.tiles();

  // Carve each shard's ring with one arena call per owning workspace (arena
  // calls invalidate earlier pointers from the same workspace). A slot is
  // sized for the widest band among its occupants: a, b, then aux.
  L.buf_a.resize(static_cast<std::size_t>(tiles));
  L.buf_b.resize(static_cast<std::size_t>(tiles));
  L.aux.resize(static_cast<std::size_t>(tiles), nullptr);
  L.ring_prev.assign(static_cast<std::size_t>(tiles), -1);
  L.done = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(tiles));
  for (int s = 0; s < shards; ++s) {
    const auto [tb, te] = L.tile_range[static_cast<std::size_t>(s)];
    const int slots =
        std::min(te - tb, ring_slots_for(req.sweeps, workers[static_cast<std::size_t>(s)]));
    std::vector<Index> slot_band(static_cast<std::size_t>(slots), 0);
    for (int i = tb; i < te; ++i) {
      Index& sb = slot_band[static_cast<std::size_t>((i - tb) % slots)];
      sb = std::max(sb, L.starts[static_cast<std::size_t>(i) + 1] -
                            L.starts[static_cast<std::size_t>(i)]);
    }
    auto buf_bytes = [&](Index band) {
      return static_cast<std::size_t>(req.ht + band + req.hb) * unit_bytes + skew_bytes;
    };
    auto aux_bytes = [&](Index band) {
      return req.has_aux ? static_cast<std::size_t>(band) * unit_bytes + skew_bytes : 0;
    };
    std::vector<std::size_t> slot_off(static_cast<std::size_t>(slots) + 1, 0);
    for (int k = 0; k < slots; ++k) {
      const Index band = slot_band[static_cast<std::size_t>(k)];
      slot_off[static_cast<std::size_t>(k) + 1] =
          slot_off[static_cast<std::size_t>(k)] + 2 * buf_bytes(band) + aux_bytes(band);
    }
    const std::size_t bytes = slot_off.back() + skew_bytes;  // tail guard
    sim::PersistentWorkspace& owner =
        L.devices.empty() ? ws : L.devices[static_cast<std::size_t>(s)]->workspace();
    std::byte* base = owner.arena(bytes);
    for (int i = tb; i < te; ++i) {
      const int k = (i - tb) % slots;
      const Index band = slot_band[static_cast<std::size_t>(k)];
      std::byte* p = base + slot_off[static_cast<std::size_t>(k)];
      L.buf_a[static_cast<std::size_t>(i)] = p;
      L.buf_b[static_cast<std::size_t>(i)] = p + buf_bytes(band);
      if (req.has_aux) L.aux[static_cast<std::size_t>(i)] = p + 2 * buf_bytes(band);
      if (i - tb >= slots) L.ring_prev[static_cast<std::size_t>(i)] = i - slots;
    }
    L.ring_slots = std::max(L.ring_slots, slots);
    L.residence_bytes += bytes;
  }

  // Channel wiring, uniform across intra-shard and seam edges, static over
  // the whole run: a channel always writes its consumer's slot (the ring
  // gates who may write when, not where).
  // Channel 2e   (down, tile e -> e+1): writes tile e+1's upper halo.
  // Channel 2e+1 (up, tile e+1 -> e): writes tile e's lower halo units.
  const std::size_t n_chans = tiles > 1 ? static_cast<std::size_t>(2 * (tiles - 1)) : 0;
  L.chans = sp.group != nullptr ? sp.group->peer_channels(n_chans) : ws.channels(n_chans);
  for (int e = 0; e + 1 < tiles; ++e) {
    const Index band_e = L.starts[static_cast<std::size_t>(e) + 1] -
                         L.starts[static_cast<std::size_t>(e)];
    L.chans[static_cast<std::size_t>(2 * e)].configure_external(
        L.buf_a[static_cast<std::size_t>(e) + 1], L.buf_b[static_cast<std::size_t>(e) + 1]);
    const std::size_t lower_halo =
        static_cast<std::size_t>(req.ht + band_e) * unit_bytes;
    L.chans[static_cast<std::size_t>(2 * e) + 1].configure_external(
        L.buf_a[static_cast<std::size_t>(e)] + lower_halo,
        L.buf_b[static_cast<std::size_t>(e)] + lower_halo);
  }
  return L;
}

}  // namespace detail
}  // namespace ssam::core
