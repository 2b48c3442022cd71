#include "functions/replicator_uif.h"

#include <algorithm>
#include <vector>

#include "obs/obs.h"

namespace nvmetro::functions {

ReplicatorUif::ReplicatorUif(kblock::BlockDevice* secondary,
                             ReplicatorParams params)
    : secondary_(secondary), params_(params) {}

uif::Uring* ReplicatorUif::EnsureUring() {
  if (!uring_) {
    uring_ = std::make_unique<uif::Uring>(secondary_,
                                          function()->host()->poll_cpu());
  }
  return uring_.get();
}

void ReplicatorUif::EnsureMetrics() {
  if (metrics_init_ || !function()) return;
  metrics_init_ = true;
  obs::Observability* obs = function()->host()->params().obs;
  if (!obs) return;
  m_degraded_writes_ = obs->metrics().GetCounter("repl.degraded_writes");
  m_resynced_ = obs->metrics().GetCounter("repl.resynced_lbas");
  m_writes_failed_ = obs->metrics().GetCounter("repl.writes_failed");
}

u64 ReplicatorUif::dirty_sectors() const {
  u64 n = 0;
  for (const auto& [sector, count] : dirty_) n += count;
  return n;
}

void ReplicatorUif::EnterDegraded() {
  degraded_ = true;
}

void ReplicatorUif::MarkDirty(u64 sector, u64 nsect) {
  if (nsect == 0) return;
  u64 end = sector + nsect;
  // Merge with any region starting at or before `end`, working backwards
  // from the first region past the new range.
  auto it = dirty_.upper_bound(end);
  while (it != dirty_.begin()) {
    auto prev = std::prev(it);
    u64 p_end = prev->first + prev->second;
    if (p_end < sector) break;  // disjoint, no further overlap possible
    sector = std::min(sector, prev->first);
    end = std::max(end, p_end);
    it = dirty_.erase(prev);
  }
  dirty_[sector] = end - sector;
}

void ReplicatorUif::OnLinkChange(bool down) {
  link_down_ = down;
  if (!down) StartResync();
}

void ReplicatorUif::StartResync() {
  if (!degraded_ || resyncing_ || link_down_) return;
  if (dirty_.empty()) {
    degraded_ = false;
    return;
  }
  if (!primary_) return;  // nothing to copy from: stay degraded
  resyncing_ = true;
  PumpResync();
}

void ReplicatorUif::PumpResync() {
  if (dirty_.empty()) {
    resyncing_ = false;
    degraded_ = false;
    return;
  }
  // Claim one chunk off the front of the log. A concurrent guest write to
  // the claimed range re-dirties it via MarkDirty, so nothing is lost.
  auto it = dirty_.begin();
  u64 sector = it->first;
  u64 n = std::min(it->second, params_.resync_chunk_sectors);
  if (n == it->second) {
    dirty_.erase(it);
  } else {
    u64 rest = it->second - n;
    dirty_.erase(it);
    dirty_[sector + n] = rest;
  }
  if (function()) {
    function()->host()->poll_cpu()->Charge(params_.resync_chunk_cpu_ns);
  }
  u64 offset = function() ? function()->part_first_lba() : 0;
  auto buf = std::make_shared<std::vector<u8>>(n * kblock::kSectorSize);
  u64 len = buf->size();
  primary_->Submit(kblock::Bio::Read(
      sector + offset, buf->data(), len, [this, sector, n, buf, len](Status st) {
        if (!st.ok()) {
          MarkDirty(sector, n);
          resyncing_ = false;  // wait for the next heal
          return;
        }
        secondary_->Submit(kblock::Bio::Write(
            sector, buf->data(), len, [this, sector, n, buf](Status wst) {
              if (!wst.ok()) {
                MarkDirty(sector, n);
                resyncing_ = false;
                return;
              }
              resynced_sectors_ += n;
              EnsureMetrics();
              if (m_resynced_) m_resynced_->Inc(n);
              PumpResync();
            }));
      }));
}

bool ReplicatorUif::work(const nvme::Sqe& cmd, u32 tag, u16& status) {
  switch (cmd.opcode) {
    case nvme::kCmdWrite: {
      uif::GuestData data = function()->Parse(cmd);
      if (!data.ok()) {
        status = nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScDataTransferError);
        return false;
      }
      EnsureMetrics();
      // Secondary mirrors the guest's view: guest-relative sectors.
      u64 sector = data.disk_addr() - function()->part_first_lba();
      u64 nsect = cmd.block_count();
      function()->host()->poll_cpu()->Charge(params_.per_req_ns);
      if (degraded_) {
        // The primary leg (fast path) carries the write; log the range
        // for resync and ack.
        MarkDirty(sector, nsect);
        degraded_writes_++;
        if (m_degraded_writes_) m_degraded_writes_->Inc();
        status = nvme::kStatusSuccess;
        return false;
      }
      // Zero-copy: forward the guest's own pages to the secondary.
      auto ticket = std::make_shared<uif::IovecTicket>();
      ticket->tag = tag;
      mem::GuestMemory* gm = data.guest_memory();
      for (const auto& seg : data.segments()) {
        u8* p = gm->Translate(seg.gpa, seg.len);
        if (!p) {
          status = nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScDataTransferError);
          return false;
        }
        ticket->iovecs.push_back({p, seg.len});
      }
      ticket->done = [this, fn = function(), tag, sector, nsect](Status st) {
        if (st.ok()) {
          writes_++;
          fn->Respond(tag, nvme::kStatusSuccess);
          return;
        }
        writes_failed_++;
        if (m_writes_failed_) m_writes_failed_->Inc();
        // Degrade: the primary leg already has the data; remember the
        // range and ack so the guest keeps running on one replica.
        EnterDegraded();
        MarkDirty(sector, nsect);
        degraded_writes_++;
        if (m_degraded_writes_) m_degraded_writes_->Inc();
        fn->Respond(tag, nvme::kStatusSuccess);
      };
      EnsureUring()->QueueWritev(std::move(ticket), sector);
      return true;
    }
    case nvme::kCmdFlush:
      if (degraded_) {
        // No secondary to flush; durability is the primary's problem
        // until resync completes.
        status = nvme::kStatusSuccess;
        return false;
      }
      // Propagate flushes to the secondary for durability parity.
      // A failed secondary flush degrades the mirror like a failed
      // write; the guest's flush succeeds on the primary.
      EnsureUring()->QueueFsync([this, fn = function(), tag](Status st) {
        if (!st.ok()) EnterDegraded();
        fn->Respond(tag, nvme::kStatusSuccess);
      });
      return true;
    default:
      // The classifier filters reads out ("the UIF only needed to
      // consider writes", paper §V-F); anything else is a policy error.
      status = nvme::MakeStatus(nvme::kSctGeneric, nvme::kScInvalidOpcode);
      return false;
  }
}

}  // namespace nvmetro::functions
