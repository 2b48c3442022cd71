// Per-queue router shard (DESIGN.md §14): the routing-entry slab, the
// generation-checked host-cid table, the batch scratch, the QoS
// deferral ring and per-shard stats of one guest queue pair.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "mem/arena.h"
#include "nvme/defs.h"
#include "nvme/queue.h"
#include "sim/simulator.h"

namespace nvmetro::obs {
class FlightRing;
}  // namespace nvmetro::obs

namespace nvmetro::core {

/// Guest queue pairs (= shards) per virtual controller.
constexpr u32 kMaxShards = 64;
/// Routing slots per shard.
constexpr u32 kShardSlotCap = 1024;
/// "No routing tag": a stale or unknown host cid.
constexpr u32 kNoTag = mem::GenTable::kNoValue;

/// Routing tags pack `gen:16 | shard:6 | slot:10`, so a fresh slot in
/// shard 0 has the same tag value as the pre-shard single table.
constexpr u32 kTagSlotBits = 10;
constexpr u32 kTagShardBits = 6;
static_assert((1u << kTagSlotBits) == kShardSlotCap);
static_assert((1u << kTagShardBits) == kMaxShards);

constexpr u32 MakeTag(u16 gen, u32 shard, u32 slot) {
  return (static_cast<u32>(gen) << 16) | (shard << kTagSlotBits) | slot;
}
constexpr u32 TagSlot(u32 tag) { return tag & (kShardSlotCap - 1); }
constexpr u32 TagShard(u32 tag) {
  return (tag >> kTagSlotBits) & (kMaxShards - 1);
}
constexpr u16 TagGen(u32 tag) { return static_cast<u16>(tag >> 16); }

/// Routing state of one guest command, from VSQ pop to VCQ post.
struct RequestEntry {
  bool in_use = false;
  /// Routing tag (see MakeTag). The generation guards against stale
  /// completions: a timed-out leg finishing after its slot was recycled
  /// must not touch the new occupant.
  u32 tag = 0;
  nvme::Sqe sqe;          // original guest command
  u64 mediated_slba = 0;  // after classifier writes
  u32 mediated_nlb = 0;
  u16 gq_index = 0;       // guest queue (= shard) it arrived on
  u64 state = 0;          // classifier scratch
  int outstanding = 0;
  u8 pending[3] = {};     // in-flight legs per Path (stale-leg guard)
  u32 hook_flags = 0;     // pending per-path hooks (bit = Path)
  u32 will_flags = 0;     // per-path auto-complete
  bool wait_for_hook = false;
  bool completed = false;
  nvme::NvmeStatus agg_status = nvme::kStatusSuccess;
  u32 result = 0;  // CQE DW0 from the last fast-path completion
  // Failure recovery: deadline timer + transient-retry budget.
  // retry_pending counts legs sitting in retry backoff — they hold an
  // `outstanding` reference but no per-path send.
  sim::EventId deadline_ev;
  u8 retries = 0;
  u8 retry_pending = 0;
  /// Resubmission hops taken so far (DESIGN.md §15).
  u32 chain_depth = 0;
  // Observability: request id, arrival time, Path bits dispatched.
  u64 req_id = 0;
  SimTime start_ns = 0;
  u8 paths_used = 0;
  /// Keeps "router.failed" and "router.completed" disjoint.
  bool failed_marked = false;
};

/// Per-shard counters; the controller-level accessors sum them.
struct ShardStats {
  u64 completed = 0;
  u64 failed = 0;
  u64 fast_sends = 0;
  u64 notify_sends = 0;
  u64 kernel_sends = 0;
  u64 timeouts = 0;
  u64 retries = 0;
  u64 qos_deferred = 0;
  u64 qos_shed = 0;
  u64 ovl_shed = 0;
  u64 resubmits = 0;
  u64 stale_cid_drops = 0;
};

class RouterShard {
 public:
  /// One parked command awaiting QoS admission. The ring stores tags,
  /// not pointers: a parked command that times out is freed by the
  /// deadline and its stale tag is skipped on resume.
  struct Waiter {
    u32 tag = 0;
    u32 cost = 0;
    SimTime parked_at = 0;
  };

  explicit RouterShard(u32 index) : index_(index) {}

  u32 index() const { return index_; }

  // --- Routing-entry slab ----------------------------------------------------
  /// Takes a slot (LIFO reuse, generation bumped) or grows the slab by a
  /// chunk; null once kShardSlotCap slots are live.
  RequestEntry* AllocEntry();
  /// The live entry behind `tag`, or null if freed or recycled.
  RequestEntry* EntryByTag(u32 tag);
  void FreeEntry(RequestEntry* e);
  RequestEntry* EntryAt(u32 slot) { return slab_.at(slot); }
  u32 slab_size() const { return slab_.size(); }
  u32 slots_in_use() const { return in_use_; }
  u32 slab_capacity() const { return slab_.capacity(); }

  // --- Host-cid table --------------------------------------------------------
  /// Maps a fresh generation-checked host cid to `tag`.
  bool AllocCid(u32 tag, u16* cid) { return cids_.Alloc(tag, cid); }
  /// Resolves and releases a device CQE's cid. A stale handle is counted
  /// in stats.stale_cid_drops and yields kNoTag.
  u32 TakeCid(u16 cid);
  void FreeCid(u16 cid) { cids_.Free(cid); }
  /// Orphans every cid still mapped to `tag` (abort paths).
  void FreeCidsOf(u32 tag) { cids_.FreeValue(tag); }
  u32 cid_in_use() const { return cids_.in_use(); }
  u32 cid_capacity() const { return cids_.capacity(); }

  // --- Scratch ---------------------------------------------------------------
  /// Reserves the batch scratch to `entries` req ids (the VCQ depth
  /// bounds how many completions one interrupt can cover).
  void ReserveScratch(usize entries);
  /// push_back that reports a reallocation to mem::HotPathAllocs.
  static void PushScratch(std::vector<u64>* v, u64 x);

  // --- Queue binding ---------------------------------------------------------
  u16 qid = 0;
  nvme::SqRing* vsq = nullptr;
  nvme::CqRing* vcq = nullptr;
  std::function<void()> irq;
  u16 host_qid = 0;  // 1:1 HSQ/HCQ on the physical drive
  obs::FlightRing* flight = nullptr;

  // Batched-pipeline flush state (DESIGN.md §10).
  bool batch_ring = false;          // HSQ pushes awaiting one doorbell
  bool batch_irq = false;           // VCQ posts awaiting one interrupt
  std::vector<u64> batch_irq_reqs;  // req_ids the pending IRQ covers

  // QoS deferral ring (DESIGN.md §12) and its resume timer.
  std::vector<Waiter> qos_ring;
  usize qos_head = 0;
  usize qos_count = 0;
  bool qos_resume_armed = false;
  SimTime qos_resume_at = 0;
  sim::EventId qos_resume_ev;

  ShardStats stats;

 private:
  u32 index_;
  mem::SlabPool<RequestEntry> slab_;
  std::vector<u16> free_;  // LIFO free list of slab slots
  u32 in_use_ = 0;
  mem::GenTable cids_;
};

}  // namespace nvmetro::core
