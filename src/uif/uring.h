// io_uring-style asynchronous I/O for UIFs.
//
// The paper's UIFs write data to disk "with io_uring" (Listing 2): the
// caller queues an iovec ticket against a disk sector and gets an
// asynchronous completion. Here the ring is modeled over the host block
// layer with io_uring's cost profile (cheap submissions, batched
// completion reaping on the caller's thread).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "kblock/bio.h"
#include "sim/vcpu.h"

namespace nvmetro::uif {

/// An asynchronous I/O ticket: iovecs plus caller context, as in the
/// paper's `iovec_ticket`.
struct IovecTicket {
  u32 tag = 0;
  std::vector<std::pair<const void*, u64>> iovecs;
  /// Completion callback (runs on the ring's thread).
  std::function<void(Status)> done;
};

struct UringParams {
  /// CPU to queue one SQE (no syscall on the hot path with SQPOLL off but
  /// batched enter; amortized).
  SimTime submit_cpu_ns = 600;
  /// CPU to reap one CQE.
  SimTime complete_cpu_ns = 350;
};

class Uring {
 public:
  /// I/O lands on `dev` (typically the host NVMe block device for the
  /// backend namespace); CPU costs are charged to `cpu` (the UIF thread).
  Uring(kblock::BlockDevice* dev, sim::VCpu* cpu, UringParams params = {});

  /// Writes the ticket's iovecs at `sector`. The ring holds the ticket
  /// until its completion runs; a run that ends first frees it with the
  /// pending event.
  void QueueWritev(std::shared_ptr<IovecTicket> ticket, u64 sector);

  /// Reads into the ticket's iovecs from `sector`.
  void QueueReadv(std::shared_ptr<IovecTicket> ticket, u64 sector);

  /// Issues a flush.
  void QueueFsync(std::function<void(Status)> done);

  u64 submitted() const { return submitted_; }
  u64 completed() const { return completed_; }

 private:
  void Queue(std::shared_ptr<IovecTicket> t, u64 sector, bool write);

  kblock::BlockDevice* dev_;
  sim::VCpu* cpu_;
  UringParams params_;
  u64 submitted_ = 0;
  u64 completed_ = 0;
};

}  // namespace nvmetro::uif
