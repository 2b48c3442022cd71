#include "sim/simulator.h"

#include <cassert>

#include "sim/vcpu.h"

namespace nvmetro::sim {

EventId Simulator::ScheduleAt(SimTime at, Callback cb) {
  assert(at >= now_ && "cannot schedule in the past");
  if (at < now_) at = now_;
  u64 seq = next_seq_++;
  queue_.push(Event{at, seq, std::move(cb)});
  live_.insert(seq);
  return EventId{seq};
}

void Simulator::Cancel(EventId id) {
  // Only a live (scheduled, not yet fired, not yet cancelled) event can be
  // cancelled; anything else is a stale id and must not touch cancelled_.
  if (id.valid() && live_.erase(id.seq)) cancelled_.insert(id.seq);
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    auto it = cancelled_.find(ev.seq);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    live_.erase(ev.seq);
    now_ = ev.time;
    executed_++;
    ev.cb();
    return true;
  }
  return false;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  if (horizon_ > now_) now_ = horizon_;
  return now_;
}

void Simulator::RunUntil(SimTime t) {
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (cancelled_.count(top.seq)) {
      cancelled_.erase(top.seq);
      queue_.pop();
      continue;
    }
    if (top.time > t) break;
    Event ev = queue_.top();
    queue_.pop();
    live_.erase(ev.seq);
    now_ = ev.time;
    executed_++;
    ev.cb();
  }
  if (t > now_) now_ = t;
}

u64 Simulator::TotalCpuBusyNs() const {
  u64 sum = 0;
  for (const VCpu* c : cpus_) sum += c->busy_ns();
  return sum;
}

}  // namespace nvmetro::sim
