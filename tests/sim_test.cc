// Tests for the discrete-event simulation core: event ordering, VCpu
// serialization and CPU accounting, poller busy/adaptive behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "sim/poller.h"
#include "sim/simulator.h"
#include "sim/vcpu.h"

namespace nvmetro::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(300, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime seen = 0;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 150u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.ScheduleAt(10, [&] { ran = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelInvalidIsNoop) {
  Simulator sim;
  sim.Cancel(EventId{});
  sim.Cancel(EventId{9999});
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, StaleCancelDoesNotUnderflowPending) {
  // Regression: cancelling an EventId whose event already fired used to
  // land the seq in cancelled_ while queue_ no longer held it, so
  // pending() == queue_.size() - cancelled_.size() wrapped to ~0.
  Simulator sim;
  EventId id = sim.ScheduleAt(10, [] {});
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();  // the event fires; `id` is now stale
  EXPECT_EQ(sim.pending(), 0u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.Cancel(id);  // and again, for good measure
  EXPECT_EQ(sim.pending(), 0u);
  // The simulator still schedules and runs normally afterwards.
  bool ran = false;
  sim.ScheduleAt(20, [&] { ran = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, DoubleCancelCountsOnce) {
  Simulator sim;
  EventId a = sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Cancel(a);  // second cancel of the same live-then-cancelled event
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, PendingExcludesCancelledUntilDrained) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; i++) {
    ids.push_back(sim.ScheduleAt(10 * (i + 1), [] {}));
  }
  for (int i = 0; i < 8; i += 2) sim.Cancel(ids[i]);
  EXPECT_EQ(sim.pending(), 4u);
  sim.RunUntil(45);  // fires events at 20 and 40
  EXPECT_EQ(sim.pending(), 2u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(100, [&] { fired.push_back(100); });
  sim.ScheduleAt(200, [&] { fired.push_back(200); });
  sim.RunUntil(150);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(sim.now(), 150u);
  sim.Run();
  EXPECT_EQ(fired.size(), 2u);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.ScheduleAfter(10, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40u);
}

// --- VCpu -------------------------------------------------------------------

TEST(VCpuTest, SerializesWork) {
  Simulator sim;
  VCpu cpu(&sim, "c0");
  std::vector<SimTime> done;
  cpu.Run(100, [&] { done.push_back(sim.now()); });
  cpu.Run(50, [&] { done.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 100u);
  EXPECT_EQ(done[1], 150u);  // queued behind the first item
}

TEST(VCpuTest, AccountsWorkTime) {
  Simulator sim;
  VCpu cpu(&sim, "c0");
  cpu.Run(100, [] {});
  cpu.Run(200, [] {});
  sim.Run();
  EXPECT_EQ(cpu.busy_ns(), 300u);
}

TEST(VCpuTest, IdleGapsNotAccounted) {
  Simulator sim;
  VCpu cpu(&sim, "c0");
  cpu.Run(100, [] {});
  sim.ScheduleAt(10000, [&] { cpu.Run(50, [] {}); });
  sim.Run();
  EXPECT_EQ(cpu.busy_ns(), 150u);
  EXPECT_EQ(sim.now(), 10050u);
}

TEST(VCpuTest, PollingAccruesWallTime) {
  Simulator sim;
  VCpu cpu(&sim, "poller");
  sim.ScheduleAt(0, [&] { cpu.SetPolling(true); });
  sim.ScheduleAt(1000, [&] { cpu.SetPolling(false); });
  sim.ScheduleAt(2000, [] {});  // advance clock past poll window
  sim.Run();
  EXPECT_EQ(cpu.busy_ns(), 1000u);
}

TEST(VCpuTest, WorkDuringPollingNotDoubleCounted) {
  Simulator sim;
  VCpu cpu(&sim, "poller");
  sim.ScheduleAt(0, [&] {
    cpu.SetPolling(true);
    cpu.Run(300, [] {});
  });
  sim.ScheduleAt(1000, [&] { cpu.SetPolling(false); });
  sim.Run();
  EXPECT_EQ(cpu.busy_ns(), 1000u);  // wall time only, not 1300
}

TEST(VCpuTest, OpenPollingWindowCounted) {
  Simulator sim;
  VCpu cpu(&sim, "poller");
  sim.ScheduleAt(0, [&] { cpu.SetPolling(true); });
  sim.ScheduleAt(500, [] {});
  sim.Run();
  EXPECT_EQ(cpu.busy_ns(), 500u);  // window still open at end
}

TEST(VCpuTest, ChargeSchedulesNothingAndRunEndsWhereItEnds) {
  // A charge is bookkeeping: it queues no event, yet Run() still ends at
  // the instant the charged work finishes. RunUntil() ends at its bound.
  Simulator sim;
  VCpu cpu(&sim, "c0");
  cpu.Charge(300);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(cpu.free_at(), 300u);
  sim.ScheduleAt(100, [&] { cpu.Charge(50); });  // queued behind: ends 350
  sim.RunUntil(200);
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.Run(), 350u);
  EXPECT_EQ(sim.now(), 350u);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(cpu.busy_ns(), 350u);
}

TEST(VCpuTest, RegisteredWithSimulator) {
  Simulator sim;
  VCpu a(&sim, "a"), b(&sim, "b");
  a.Charge(10);
  b.Charge(20);
  sim.Run();
  EXPECT_EQ(sim.cpus().size(), 2u);
  EXPECT_EQ(sim.TotalCpuBusyNs(), 30u);
}

// --- Poller -----------------------------------------------------------------

struct PollerFixture : ::testing::Test {
  Simulator sim;
  VCpu cpu{&sim, "poll"};
  int handled = 0;
};

TEST_F(PollerFixture, DispatchesNotifiedEvents) {
  Poller::Options opts;
  opts.dispatch_cost = 100;
  Poller p(&sim, &cpu, opts);
  u32 src = p.AddSource([&] { handled++; });
  p.Start();
  p.Notify(src);
  p.Notify(src);
  sim.Run();
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(p.dispatched(), 2u);
}

TEST_F(PollerFixture, EventsBeforeStartAreQueued) {
  Poller p(&sim, &cpu, Poller::Options{});
  u32 src = p.AddSource([&] { handled++; });
  p.Notify(src);
  p.Start();
  sim.Run();
  EXPECT_EQ(handled, 1);
}

TEST_F(PollerFixture, BusyPollBurnsCpuWhileIdle) {
  Poller::Options opts;
  opts.adaptive = false;
  Poller p(&sim, &cpu, opts);
  p.AddSource([&] { handled++; });
  p.Start();
  sim.RunUntil(1 * kMs);
  EXPECT_EQ(cpu.busy_ns(), 1 * kMs);  // spinning with no events
}

TEST_F(PollerFixture, AdaptiveSleepsWhenIdle) {
  Poller::Options opts;
  opts.adaptive = true;
  opts.idle_timeout = 10 * kUs;
  Poller p(&sim, &cpu, opts);
  p.AddSource([&] { handled++; });
  p.Start();
  sim.RunUntil(1 * kMs);
  EXPECT_TRUE(p.sleeping());
  // CPU burned only during the initial 10us polling window.
  EXPECT_LE(cpu.busy_ns(), 11 * kUs);
}

TEST_F(PollerFixture, WakeupFromSleepPaysLatency) {
  Poller::Options opts;
  opts.adaptive = true;
  opts.idle_timeout = 10 * kUs;
  opts.wakeup_latency = 4 * kUs;
  opts.dispatch_cost = 0;
  opts.wakeup_cpu_cost = 0;
  Poller p(&sim, &cpu, opts);
  SimTime handled_at = 0;
  u32 src = p.AddSource([&] { handled_at = sim.now(); });
  p.Start();
  sim.RunUntil(100 * kUs);
  ASSERT_TRUE(p.sleeping());
  p.Notify(src);
  sim.Run();
  EXPECT_GE(handled_at, 104 * kUs);
  // With no further activity the adaptive poller goes back to sleep.
  EXPECT_TRUE(p.sleeping());
}

TEST_F(PollerFixture, ActivityPreventsSleep) {
  Poller::Options opts;
  opts.adaptive = true;
  opts.idle_timeout = 50 * kUs;
  Poller p(&sim, &cpu, opts);
  u32 src = p.AddSource([&] { handled++; });
  p.Start();
  // Notify every 20us, well under the idle timeout.
  for (int i = 1; i <= 10; i++) {
    sim.ScheduleAt(i * 20 * kUs, [&p, src] { p.Notify(src); });
  }
  sim.RunUntil(210 * kUs);
  EXPECT_FALSE(p.sleeping());
  EXPECT_EQ(handled, 10);
}

TEST_F(PollerFixture, MultipleSourcesFifo) {
  Poller p(&sim, &cpu, Poller::Options{});
  std::vector<int> order;
  u32 a = p.AddSource([&] { order.push_back(0); });
  u32 b = p.AddSource([&] { order.push_back(1); });
  p.Start();
  p.Notify(b);
  p.Notify(a);
  p.Notify(b);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 1}));
}

TEST_F(PollerFixture, StopHaltsDispatchAndCpu) {
  Poller p(&sim, &cpu, Poller::Options{});
  u32 src = p.AddSource([&] { handled++; });
  p.Start();
  sim.RunUntil(10 * kUs);
  p.Stop();
  u64 busy = cpu.busy_ns();
  p.Notify(src);
  sim.RunUntil(1 * kMs);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(cpu.busy_ns(), busy);
}

}  // namespace
}  // namespace nvmetro::sim
