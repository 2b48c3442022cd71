// Deterministic discrete-event simulation core.
//
// Why a simulator: the paper's evaluation measures polling-thread CPU
// consumption, multi-job scaling and tail latency on a 12-core server with
// real NVMe hardware. This reproduction runs on a 1-core container, so all
// timing is virtual: components schedule events on a simulated clock, and
// per-CPU busy time is accounted explicitly (see VCpu). All protocol and
// data-path code (rings, PRP walks, eBPF interpretation, XTS-AES) runs for
// real inside the simulation; only the clock is virtual, which makes every
// experiment deterministic and reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace nvmetro::sim {

class VCpu;

/// Identifies a scheduled event so that it can be cancelled.
struct EventId {
  u64 seq = 0;
  bool valid() const { return seq != 0; }
};

/// The event queue and virtual clock. Events at the same timestamp run in
/// scheduling order (FIFO), which keeps simulations deterministic.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in nanoseconds.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (>= now).
  EventId ScheduleAt(SimTime at, Callback cb);

  /// Schedules `cb` to run `delay` ns from now.
  EventId ScheduleAfter(SimTime delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Cancelling an already-fired, already-
  /// cancelled or invalid event is a no-op (stale EventIds are safe).
  void Cancel(EventId id);

  /// Runs events until the queue is empty, then advances now() to the
  /// horizon if it lies beyond. Returns the final time.
  SimTime Run();

  /// Runs events with time <= t, then sets now() = t.
  void RunUntil(SimTime t);

  /// RunUntil(now() + d).
  void RunFor(SimTime d) { RunUntil(now_ + d); }

  /// Executes the single next event, if any. Returns false when idle.
  bool Step();

  /// Records that accounted work runs until `t` (VCpu::Charge). Run()
  /// does not end before the latest such time; RunUntil() ignores it.
  void ExtendHorizon(SimTime t) {
    if (t > horizon_) horizon_ = t;
  }

  /// Number of pending (non-cancelled) events.
  usize pending() const { return live_.size(); }

  /// Total events executed since construction.
  u64 events_executed() const { return executed_; }

  /// Registers a VCpu for aggregate CPU reporting (called by VCpu ctor).
  void RegisterCpu(VCpu* cpu) { cpus_.push_back(cpu); }

  /// All registered vCPUs (guest cores, router threads, UIF threads...).
  const std::vector<VCpu*>& cpus() const { return cpus_; }

  /// Sum of busy nanoseconds across all registered vCPUs.
  u64 TotalCpuBusyNs() const;

 private:
  struct Event {
    SimTime time;
    u64 seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  SimTime horizon_ = 0;
  u64 next_seq_ = 1;
  u64 executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Seqs scheduled but neither executed nor cancelled. Keeping this set
  // (rather than computing queue_.size() - cancelled_.size()) makes
  // Cancel() of a stale EventId a true no-op: the old subtraction
  // underflowed usize when a seq that already fired was "cancelled".
  std::unordered_set<u64> live_;
  std::unordered_set<u64> cancelled_;
  std::vector<VCpu*> cpus_;
};

}  // namespace nvmetro::sim
