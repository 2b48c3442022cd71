#include "sim/vcpu.h"

namespace nvmetro::sim {

VCpu::VCpu(Simulator* sim, std::string name)
    : sim_(sim), name_(std::move(name)) {
  sim_->RegisterCpu(this);
}

void VCpu::Run(SimTime cost, Callback fn) {
  Charge(cost);
  sim_->ScheduleAt(free_at_, std::move(fn));
}

void VCpu::SetPolling(bool on) {
  if (on == polling_) return;
  if (on) {
    poll_started_ = sim_->now();
  } else {
    poll_accum_ns_ += sim_->now() - poll_started_;
  }
  polling_ = on;
}

u64 VCpu::busy_ns() const {
  u64 open = polling_ ? (sim_->now() - poll_started_) : 0;
  return work_ns_ + poll_accum_ns_ + open;
}

}  // namespace nvmetro::sim
