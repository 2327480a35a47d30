#include "gpusim/persistent.hpp"

#include <thread>
#include <vector>

namespace ssam::sim {

void HaloChannel::configure(std::size_t slot_bytes, int depth) {
  depth_ = depth < 2 ? 2 : depth;
  slot_bytes_ = slot_bytes;
  external_[0] = nullptr;
  external_[1] = nullptr;
  slots_.resize(slot_bytes_ * static_cast<std::size_t>(depth_));
  published_.store(-1, std::memory_order_relaxed);
  released_.store(-1, std::memory_order_relaxed);
}

void HaloChannel::configure_external(std::byte* dst_even, std::byte* dst_odd) {
  SSAM_REQUIRE(dst_even != nullptr && dst_odd != nullptr, "null external halo slots");
  depth_ = 2;  // the consumer's buffer pair IS the ring
  slot_bytes_ = 0;
  external_[0] = dst_even;
  external_[1] = dst_odd;
  slots_.clear();
  published_.store(-1, std::memory_order_relaxed);
  released_.store(-1, std::memory_order_relaxed);
}

std::byte* PersistentWorkspace::aligned_block(ZeroedArray<std::byte>& block,
                                              std::size_t bytes) {
  constexpr std::size_t kAlign = 64;
  if (block.size() < bytes + kAlign) {
    block = {};  // release the old block before the larger one is mapped
    block = ZeroedArray<std::byte>(bytes + kAlign);
  }
  auto addr = reinterpret_cast<std::uintptr_t>(block.data());
  const std::size_t pad = (kAlign - addr % kAlign) % kAlign;
  return block.data() + pad;
}

std::byte* PersistentWorkspace::arena(std::size_t bytes) {
  return aligned_block(arena_, bytes);
}

std::byte* PersistentWorkspace::scratch(std::size_t bytes) {
  return aligned_block(scratch_, bytes);
}

std::span<HaloChannel> PersistentWorkspace::channels(std::size_t count) {
  if (channels_.size() < count) {
    // HaloChannel holds atomics (not movable); rebuild at the larger count.
    channels_ = std::vector<HaloChannel>(count);
  }
  return {channels_.data(), count};
}

void run_persistent(std::span<PersistentTask* const> tasks) {
  run_persistent_on(ThreadPool::global(), tasks);
}

void run_persistent_on(ThreadPool& pool, std::span<PersistentTask* const> tasks,
                       const std::atomic<bool>* stop) {
  const std::int64_t n = static_cast<std::int64_t>(tasks.size());
  if (n == 0) return;
  for (PersistentTask* t : tasks) SSAM_REQUIRE(t != nullptr, "null persistent task");

  // Participants claim tiles through the pool's chunk claimer (chunk = 1 so
  // ownership spreads across workers). The serial fast path of parallel_run
  // hands the whole range to the caller — pool size 1 owns every tile.
  pool.parallel_run(n, 1, [&](ThreadPool::ChunkClaimer& claim) {
    std::vector<PersistentTask*> owned;
    auto claim_one = [&] {
      std::int64_t b = 0;
      std::int64_t e = 0;
      if (!claim.next(b, e)) return false;
      for (std::int64_t i = b; i < e; ++i) owned.push_back(tasks[static_cast<std::size_t>(i)]);
      return true;
    };
    // Abort path: parallel_run blocks until all n indices are claimed AND
    // completed, so a participant bailing on `stop` must first exhaust the
    // cursor (claiming marks the chunks complete on flush) — tiles nobody
    // ever claimed would otherwise leave the caller waiting forever.
    auto drain_claims = [&] {
      std::int64_t b = 0;
      std::int64_t e = 0;
      while (claim.next(b, e)) {
      }
    };
    if (!claim_one()) return;
    while (true) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        drain_claims();
        return;
      }
      bool progress = false;
      bool parked = false;
      for (PersistentTask* t : owned) {
        // Burst: advance this tile as far as its channels allow while its
        // working set is hot in this worker's cache.
        while (t->try_advance()) progress = true;
        parked = parked || t->parked();
      }
      std::erase_if(owned, [](const PersistentTask* t) { return t->done(); });
      if (owned.empty()) {
        // Everything owned is finished; claim more work or leave.
        if (!claim_one()) return;
        continue;
      }
      if (!progress && (parked || !claim_one())) {
        // Blocked on tiles owned by other participants: let them run — but
        // under an abort that may never come from them, keep polling `stop`
        // (a stopped neighbour will never publish the epoch we wait for).
        std::this_thread::yield();
      }
    }
  });
}

}  // namespace ssam::sim
