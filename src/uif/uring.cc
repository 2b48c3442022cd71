#include "uif/uring.h"

namespace nvmetro::uif {

Uring::Uring(kblock::BlockDevice* dev, sim::VCpu* cpu, UringParams params)
    : dev_(dev), cpu_(cpu), params_(params) {}

void Uring::Queue(std::shared_ptr<IovecTicket> t, u64 sector, bool write) {
  submitted_++;
  // The submit event and then the bio's completion share the ticket, so
  // whichever is still pending when a run ends frees it with its closure.
  cpu_->Run(params_.submit_cpu_ns, [this, t, sector, write] {
    kblock::Bio bio;
    bio.op = write ? kblock::Bio::Op::kWrite : kblock::Bio::Op::kRead;
    bio.sector = sector;
    for (const auto& [ptr, len] : t->iovecs) {
      bio.segments.push_back(
          {const_cast<u8*>(static_cast<const u8*>(ptr)), len});
    }
    bio.on_complete = [this, t](Status st) {
      cpu_->Run(params_.complete_cpu_ns, [this, t, st] {
        completed_++;
        if (t->done) t->done(st);
      });
    };
    dev_->Submit(std::move(bio));
  });
}

void Uring::QueueWritev(std::shared_ptr<IovecTicket> ticket, u64 sector) {
  Queue(std::move(ticket), sector, /*write=*/true);
}

void Uring::QueueReadv(std::shared_ptr<IovecTicket> ticket, u64 sector) {
  Queue(std::move(ticket), sector, /*write=*/false);
}

void Uring::QueueFsync(std::function<void(Status)> done) {
  submitted_++;
  cpu_->Run(params_.submit_cpu_ns, [this, done = std::move(done)] {
    kblock::Bio bio = kblock::Bio::Flush([this, done](Status st) {
      cpu_->Run(params_.complete_cpu_ns, [this, done, st] {
        completed_++;
        if (done) done(st);
      });
    });
    dev_->Submit(std::move(bio));
  });
}

}  // namespace nvmetro::uif
