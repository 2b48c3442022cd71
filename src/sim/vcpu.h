// Virtual CPU: serialized execution resource with busy-time accounting.
//
// Every thread in the modeled system — guest vCPUs, NVMetro router worker
// threads, UIF threads, kernel workers (vhost, dm-crypt kcryptd), QEMU
// iothreads, SPDK pollers, SGX switchless workers — is a VCpu. Work is
// submitted as (cost, callback) pairs and executes FIFO, one item at a
// time, so queueing delay under load emerges naturally.
//
// CPU-consumption figures (paper Figures 11-13) are computed from busy_ns:
// explicit work cost plus, for busy-polling threads, the wall-clock time
// spent in polling mode (a spinning poller burns 100% CPU whether or not
// requests arrive — this is exactly the polling-cost effect the paper
// discusses for MDev/NVMetro/SPDK).
#pragma once

#include <algorithm>
#include <functional>
#include <string>

#include "common/types.h"
#include "sim/simulator.h"

namespace nvmetro::sim {

class VCpu {
 public:
  using Callback = std::function<void()>;

  VCpu(Simulator* sim, std::string name);
  VCpu(const VCpu&) = delete;
  VCpu& operator=(const VCpu&) = delete;

  /// Enqueues a work item costing `cost` ns of CPU time; `fn` runs when
  /// the work completes. Items run FIFO; if the CPU is busy the item waits.
  void Run(SimTime cost, Callback fn);

  /// Accounts `cost` ns of CPU exactly as Run does, without an event:
  /// nothing waits on the charge, so the only trace it leaves is the
  /// simulator horizon, which keeps Simulator::Run() ending where the
  /// work ends.
  void Charge(SimTime cost) {
    SimTime start = std::max(sim_->now(), free_at_);
    free_at_ = start + cost;
    // Work that starts inside a polling window is already covered by the
    // window's wall time; if the window closes before the work runs the
    // small overlap is accepted (polling windows close only when idle).
    if (!polling_) work_ns_ += cost;
    sim_->ExtendHorizon(free_at_);
  }

  /// Marks this CPU as busy-polling (or not). While polling, wall time
  /// accrues as busy time even when no work executes.
  void SetPolling(bool on);
  bool polling() const { return polling_; }

  /// Time at which currently queued work will have drained.
  SimTime free_at() const { return free_at_; }
  bool idle() const { return free_at_ <= sim_->now(); }

  /// Total accounted busy nanoseconds (work outside polling windows plus
  /// polling wall time, including any currently open polling window).
  u64 busy_ns() const;

  /// busy_ns() - busy_ns() at the given earlier snapshot; used to measure
  /// CPU over a benchmark window.
  u64 BusySince(u64 snapshot) const { return busy_ns() - snapshot; }

  const std::string& name() const { return name_; }
  Simulator* simulator() const { return sim_; }

 private:
  Simulator* sim_;
  std::string name_;
  SimTime free_at_ = 0;
  u64 work_ns_ = 0;       // work accounted outside polling windows
  bool polling_ = false;
  SimTime poll_started_ = 0;
  u64 poll_accum_ns_ = 0;  // closed polling windows
};

/// Cold-wake penalty model: a thread (or halted guest vCPU / idle IRQ
/// core) that has been idle longer than `threshold` pays `cold_ns` of
/// extra latency to start running again (scheduler wakeup, C-state exit,
/// VM entry); a recently-active one pays only `warm_ns`. This is the
/// mechanism behind the interrupt-driven baselines' tail behaviour: fast
/// completions (writes) find the path warm, slow ones (reads) find it
/// cold.
inline SimTime WakePenalty(const VCpu& cpu, SimTime warm_ns, SimTime cold_ns,
                           SimTime threshold = 40 * kUs) {
  SimTime now = cpu.simulator()->now();
  SimTime idle_since = cpu.free_at();
  if (now <= idle_since) return 0;  // still running: no wake needed
  return (now - idle_since) > threshold ? cold_ns : warm_ns;
}

}  // namespace nvmetro::sim
