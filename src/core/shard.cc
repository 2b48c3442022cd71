#include "core/shard.h"

namespace nvmetro::core {

RequestEntry* RouterShard::AllocEntry() {
  u32 slot;
  u16 gen = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    gen = static_cast<u16>(TagGen(slab_.at(slot)->tag) + 1);
  } else {
    if (slab_.size() >= kShardSlotCap) return nullptr;
    u32 cap = slab_.capacity();
    slot = slab_.PushBack();
    if (slab_.capacity() != cap) {
      // The free list never holds more than the slab, so sizing it with
      // each chunk keeps FreeEntry allocation-free.
      mem::HotPathAllocs::Note((slab_.capacity() - free_.capacity()) *
                               sizeof(u16));
      free_.reserve(slab_.capacity());
    }
  }
  RequestEntry* e = slab_.at(slot);
  *e = RequestEntry{};
  e->in_use = true;
  e->tag = MakeTag(gen, index_, slot);
  // The all-ones tag doubles as kNoTag; skip that one generation.
  if (e->tag == kNoTag) e->tag = MakeTag(0, index_, slot);
  in_use_++;
  return e;
}

RequestEntry* RouterShard::EntryByTag(u32 tag) {
  u32 slot = TagSlot(tag);
  if (slot >= slab_.size()) return nullptr;
  RequestEntry* e = slab_.at(slot);
  if (!e->in_use || e->tag != tag) return nullptr;
  return e;
}

void RouterShard::FreeEntry(RequestEntry* e) {
  e->in_use = false;
  free_.push_back(static_cast<u16>(TagSlot(e->tag)));
  in_use_--;
}

u32 RouterShard::TakeCid(u16 cid) {
  u32 tag = cids_.Take(cid);
  if (tag == kNoTag) stats.stale_cid_drops++;
  return tag;
}

void RouterShard::ReserveScratch(usize entries) {
  if (batch_irq_reqs.capacity() >= entries) return;
  mem::HotPathAllocs::Note((entries - batch_irq_reqs.capacity()) *
                           sizeof(u64));
  batch_irq_reqs.reserve(entries);
}

void RouterShard::PushScratch(std::vector<u64>* v, u64 x) {
  if (v->size() == v->capacity()) {
    mem::HotPathAllocs::Note((v->capacity() ? v->capacity() : 1) *
                             sizeof(u64));
  }
  v->push_back(x);
}

}  // namespace nvmetro::core
