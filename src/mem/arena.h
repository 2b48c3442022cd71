// Arena/slab pools for allocation-free hot paths (DESIGN.md §14).
//
// The router's submit/complete path must not touch the heap in steady
// state: every per-request structure lives in a pool that grows in fixed
// chunks while the system warms up and then stays put. Growth is the only
// heap traffic, and every growth event reports to HotPathAllocs — the
// counting hook behind the "zero allocations per steady-state IO"
// assertions in router_stress_test, shard_test, flight_test and
// resubmit_test (NVMETRO_ZERO_ALLOC_STRICT=1, which ctest sets for them,
// turns a steady-state growth event into an abort, so a regression
// fails even outside an EXPECT).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/types.h"

namespace nvmetro::mem {

/// Process-wide accounting of pool growth on registered hot paths.
///
/// Scope: this counts the router-owned pools (routing slabs, cid tables,
/// batch scratch, deferral rings) — not the simulator's event queue or
/// the observability sinks, which are outside the routed-IO data path.
class HotPathAllocs {
 public:
  /// Total growth events / bytes since process start.
  static u64 count();
  static u64 bytes();

  /// Called by pools whenever they take memory from the heap.
  static void Note(usize grown_bytes);

  /// Opens/closes a steady-state window: growth inside the window is
  /// tallied separately (and aborts under NVMETRO_ZERO_ALLOC_STRICT=1).
  static void BeginSteadyState();
  static void EndSteadyState();
  static bool in_steady_state();
  static u64 steady_state_allocs();
};

/// Chunked slab pool: indexable like a vector, but grows in fixed chunks
/// so existing elements never move — pointers into the slab stay valid
/// across growth, and a warmed-up pool never reallocates.
template <typename T, u32 kChunk = 64>
class SlabPool {
 public:
  u32 size() const { return size_; }
  u32 capacity() const { return static_cast<u32>(chunks_.size()) * kChunk; }

  T* at(u32 i) { return &chunks_[i / kChunk][i % kChunk]; }
  const T* at(u32 i) const { return &chunks_[i / kChunk][i % kChunk]; }

  /// Appends a default-constructed slot, growing by one chunk when full.
  /// Returns the new slot's index.
  u32 PushBack() {
    if (size_ == capacity()) {
      HotPathAllocs::Note(sizeof(T) * kChunk);
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    }
    return size_++;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  u32 size_ = 0;
};

/// Flat handle table with per-slot generations: maps a dense u16 handle
/// to a u32 value in O(1) with no per-entry heap traffic — the shard
/// router's host-cid table (replacing the per-IO std::map node churn of
/// the pre-shard design).
///
/// A handle packs `slot | generation << kSlotBits`. Freeing a slot bumps
/// its generation, so a handle that outlives its mapping (a late device
/// completion for an aborted command whose cid slot was recycled) fails
/// the generation check instead of resolving to the new occupant.
class GenTable {
 public:
  static constexpr u32 kSlotBits = 12;
  static constexpr u16 kSlotMask = (1u << kSlotBits) - 1;
  static constexpr u32 kMaxSlots = 1u << kSlotBits;
  static constexpr u32 kGenMask = 0xF;  // 4-bit generation nibble
  static constexpr u32 kNoValue = 0xFFFFFFFFu;

  /// Maps a fresh handle to `value`. False when all kMaxSlots are live.
  bool Alloc(u32 value, u16* handle);

  /// The live value behind `handle`, or kNoValue when the handle is
  /// stale (slot freed or recycled since the handle was issued).
  u32 Find(u16 handle) const;

  /// Releases the mapping. False (and no state change) on a stale handle.
  bool Free(u16 handle);

  /// Find + Free in one step: returns the value and releases the slot,
  /// or kNoValue for a stale handle.
  u32 Take(u16 handle);

  /// Releases every slot holding `value` (rare abort paths: a request
  /// dying with legs in flight). Returns the number of slots freed.
  u32 FreeValue(u32 value);

  u32 in_use() const { return in_use_; }
  u32 capacity() const { return static_cast<u32>(slots_.size()); }

 private:
  struct Slot {
    u32 value = kNoValue;
    u8 gen = 0;
  };
  static constexpr u32 kChunk = 64;

  std::vector<Slot> slots_;
  std::vector<u16> free_;
  u32 in_use_ = 0;
};

}  // namespace nvmetro::mem
