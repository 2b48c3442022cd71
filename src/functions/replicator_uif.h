// Live disk replication UIF (paper §IV-B).
//
// The classifier passes reads straight to the primary disk and fans
// writes out to both the primary disk (fast path) and this UIF (notify
// path). The UIF forwards each write to the secondary drive — attached to
// a remote host over NVMe-oF — using io_uring, zero-copy from the VM's
// buffers (the mirroring is synchronous, so the guest buffers stay valid
// until both legs finish).
//
// Degraded replication (DESIGN.md §9): when the secondary leg fails
// (replica outage, NVMe-oF link drop), the UIF does not fail guest
// writes — it acks them from the primary leg alone and logs the written
// ranges in a merged dirty-region map. When the link heals
// (OnLinkChange(false)), it resyncs the dirty ranges chunk by chunk from
// the attached primary device and leaves degraded mode once the log
// drains. A resync-chunk failure re-marks the chunk and waits for the
// next heal.
#pragma once

#include <map>
#include <memory>

#include "kblock/bio.h"
#include "uif/framework.h"
#include "uif/uring.h"

namespace nvmetro::obs {
class Counter;
}  // namespace nvmetro::obs

namespace nvmetro::functions {

struct ReplicatorParams {
  /// Per-request bookkeeping cost on the UIF thread.
  SimTime per_req_ns = 400;
  /// Resync copy granularity (128 sectors = 64 KiB).
  u64 resync_chunk_sectors = 128;
  /// UIF CPU charged per resync chunk (claim + submit bookkeeping).
  SimTime resync_chunk_cpu_ns = 1'000;
};

class ReplicatorUif : public uif::UifBase {
 public:
  /// `secondary` is the remote mirror leg (typically a
  /// kblock::RemoteBlockDevice). Sectors on the secondary are
  /// guest-relative (the mirror is an image of the VM's disk).
  explicit ReplicatorUif(kblock::BlockDevice* secondary,
                         ReplicatorParams params = ReplicatorParams());

  /// Resync source: the primary disk, namespace-absolute sectors (the
  /// same device the router's kernel path uses). Without it a degraded
  /// replicator stays degraded — there is nothing to copy from.
  void AttachPrimary(kblock::BlockDevice* primary) { primary_ = primary; }

  /// Link-state notification for the secondary transport. A heal
  /// (down == false) while degraded starts the dirty-region resync.
  void OnLinkChange(bool down);

  bool work(const nvme::Sqe& cmd, u32 tag, u16& status) override;

  u64 writes_replicated() const { return writes_; }
  /// Secondary-leg writes that failed (never counted in writes_).
  u64 writes_failed() const { return writes_failed_; }
  /// Writes acked from the primary leg alone while degraded.
  u64 degraded_writes() const { return degraded_writes_; }
  u64 resynced_sectors() const { return resynced_sectors_; }
  bool degraded() const { return degraded_; }
  bool resyncing() const { return resyncing_; }
  usize dirty_regions() const { return dirty_.size(); }
  u64 dirty_sectors() const;

 private:
  uif::Uring* EnsureUring();
  void EnsureMetrics();
  void EnterDegraded();
  /// Merges [sector, sector+nsect) into the dirty-region log.
  void MarkDirty(u64 sector, u64 nsect);
  void StartResync();
  /// Claims and copies one dirty chunk; reschedules itself until the log
  /// is empty (then clears degraded) or a copy fails (then waits for the
  /// next heal). Event-driven: never self-probes on a timer.
  void PumpResync();

  kblock::BlockDevice* secondary_;
  kblock::BlockDevice* primary_ = nullptr;
  ReplicatorParams params_;
  std::unique_ptr<uif::Uring> uring_;
  u64 writes_ = 0;
  u64 writes_failed_ = 0;
  u64 degraded_writes_ = 0;
  u64 resynced_sectors_ = 0;
  bool degraded_ = false;
  bool resyncing_ = false;
  bool link_down_ = false;
  /// Dirty-region log: first sector -> sector count, merged, guest-
  /// relative (secondary address space).
  std::map<u64, u64> dirty_;
  bool metrics_init_ = false;
  obs::Counter* m_degraded_writes_ = nullptr;
  obs::Counter* m_resynced_ = nullptr;
  obs::Counter* m_writes_failed_ = nullptr;
};

}  // namespace nvmetro::functions
