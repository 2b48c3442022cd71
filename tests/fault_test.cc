// Failure-injection and boundary-condition sweep across every
// virtualization solution: injected device errors must propagate to the
// guest (never hang a request, never corrupt later I/O), capacity-edge
// I/O must round-trip, and deep bursts must drain completely.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "router_books.h"

namespace nvmetro::baselines {
namespace {

struct SolutionFaultTest : ::testing::TestWithParam<SolutionKind> {
  obs::Observability obs;  // declared first: outlives drive + bundle
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<SolutionBundle> bundle;

  void Build() {
    ssd::ControllerConfig drive = Testbed::DefaultDrive();
    drive.obs = &obs;
    tb = std::make_unique<Testbed>(drive);
    SolutionParams params;
    params.obs = &obs;
    bundle = SolutionBundle::Create(tb.get(), GetParam(), params);
    ASSERT_NE(bundle, nullptr);
  }

  Status RunOp(StorageSolution* sol, StorageSolution::Op op, u64 off,
               void* data, u64 len) {
    Status result = Internal("pending");
    sol->Submit(0, op, off, len, data, [&](Status st) { result = st; });
    tb->sim.Run();
    return result;
  }

  /// The NVMetro family routes guest I/O through the VirtualController;
  /// the other stacks never touch router metrics.
  bool UsesRouter() const {
    switch (GetParam()) {
      case SolutionKind::kNvmetro:
      case SolutionKind::kMdev:
      case SolutionKind::kNvmetroEncryption:
      case SolutionKind::kNvmetroSgx:
      case SolutionKind::kNvmetroReplication:
        return true;
      default:
        return false;
    }
  }

  /// After a drained run with injected device errors: the faults must be
  /// visible in the drive counters for every stack, and for router-based
  /// stacks also as per-path error counts — with every request's trace
  /// still ending in a guest-visible completion (VCQ post + IRQ).
  void CheckObsAfterErrors() {
    const obs::MetricsRegistry& m = obs.metrics();
    EXPECT_GE(m.CounterValue("ssd.injected"), 1u);
    EXPECT_GE(m.CounterValue("ssd.errors"), 1u);
    if (!UsesRouter()) {
      EXPECT_EQ(obs.trace().requests_opened(), 0u);
      return;
    }
    u64 path_errors = m.CounterValue("router.fast.errors") +
                      m.CounterValue("router.notify.errors") +
                      m.CounterValue("router.kernel.errors");
    EXPECT_GE(path_errors, 1u) << "device faults invisible in path counters";
    ExpectRouterBooksBalance(obs);
    const obs::TraceRecorder& tr = obs.trace();
    for (u64 id = 1; id <= tr.requests_opened(); id++) {
      auto evs = tr.EventsFor(id);
      ASSERT_FALSE(evs.empty()) << "req " << id << " left no trace";
      EXPECT_EQ(evs.back().kind, obs::SpanKind::kIrqInject)
          << "req " << id << " did not end in a completion span";
    }
  }
};

TEST_P(SolutionFaultTest, InjectedErrorsPropagateThenRecover) {
  Build();
  StorageSolution* sol = bundle->vm_solution(0);
  Rng rng(21);
  const u64 bs = 4096;

  // Seed 32 blocks so reads have data behind them.
  std::vector<u8> seed(bs);
  for (int i = 0; i < 32; i++) {
    rng.Fill(seed.data(), seed.size());
    ASSERT_TRUE(
        RunOp(sol, StorageSolution::Op::kWrite, i * bs, seed.data(), bs)
            .ok())
        << sol->name() << " seed " << i;
  }

  // The next 16 data commands reaching the local drive fail. Depending
  // on the stack one guest op may map to several device commands (QEMU
  // readahead, dm-mirror legs), so issue well more guest ops than
  // injections: every op must complete, at least one must surface the
  // error, and the errors must eventually drain.
  tb->phys->InjectError(
      1, nvme::MakeStatus(nvme::kSctMediaError, nvme::kScUnrecoveredRead),
      16);
  int ok = 0, failed = 0, done = 0;
  const int kOps = 48;
  for (int i = 0; i < kOps; i++) {
    sol->Submit(i % 4, StorageSolution::Op::kRead,
                static_cast<u64>(i % 32) * bs, bs, nullptr, [&](Status st) {
                  done++;
                  if (st.ok()) {
                    ok++;
                  } else {
                    failed++;
                  }
                });
  }
  tb->sim.Run();
  EXPECT_EQ(done, kOps) << sol->name() << ": a request hung";
  EXPECT_EQ(ok + failed, kOps) << sol->name();
  if (GetParam() == SolutionKind::kDmMirror) {
    // dm-raid1 semantics: a failed leg read is retried on the other
    // mirror, so single-leg media errors are masked from the guest.
    EXPECT_EQ(failed, 0) << sol->name() << ": failover retry broken";
  } else {
    EXPECT_GE(failed, 1) << sol->name() << ": device errors were swallowed";
  }
  EXPECT_GE(ok, 1) << sol->name() << ": errors poisoned unrelated I/O";
  CheckObsAfterErrors();

  // With the injections consumed, a fresh region must round-trip clean
  // data — no stale error state, no cache poisoned by the failures.
  std::vector<u8> in(bs), out(bs, 0);
  rng.Fill(in.data(), in.size());
  const u64 fresh = 64 * bs;
  ASSERT_TRUE(
      RunOp(sol, StorageSolution::Op::kWrite, fresh, in.data(), bs).ok())
      << sol->name();
  ASSERT_TRUE(
      RunOp(sol, StorageSolution::Op::kRead, fresh, out.data(), bs).ok())
      << sol->name();
  EXPECT_EQ(in, out) << sol->name() << ": post-error data corrupted";
}

TEST_P(SolutionFaultTest, WriteErrorsAlsoPropagate) {
  Build();
  StorageSolution* sol = bundle->vm_solution(0);
  tb->phys->InjectError(
      1, nvme::MakeStatus(nvme::kSctMediaError, nvme::kScWriteFault), 8);
  int done = 0, failed = 0;
  for (int i = 0; i < 24; i++) {
    sol->Submit(0, StorageSolution::Op::kWrite, i * 4096, 4096, nullptr,
                [&](Status st) {
                  done++;
                  if (!st.ok()) failed++;
                });
  }
  tb->sim.Run();
  EXPECT_EQ(done, 24) << sol->name();
  EXPECT_GE(failed, 1) << sol->name();
  CheckObsAfterErrors();
}

TEST_P(SolutionFaultTest, LastBlockRoundTrips) {
  Build();
  StorageSolution* sol = bundle->vm_solution(0);
  const u64 bs = 4096;
  ASSERT_GE(sol->capacity_bytes(), bs) << sol->name();
  const u64 last = sol->capacity_bytes() - bs;
  Rng rng(33);
  std::vector<u8> in(bs), out(bs, 0);
  rng.Fill(in.data(), in.size());
  ASSERT_TRUE(
      RunOp(sol, StorageSolution::Op::kWrite, last, in.data(), bs).ok())
      << sol->name() << " capacity " << sol->capacity_bytes();
  ASSERT_TRUE(
      RunOp(sol, StorageSolution::Op::kRead, last, out.data(), bs).ok())
      << sol->name();
  EXPECT_EQ(in, out) << sol->name() << ": capacity-edge data corrupted";
}

TEST_P(SolutionFaultTest, DeepMixedBurstDrains) {
  Build();
  StorageSolution* sol = bundle->vm_solution(0);
  const int kOps = 256;
  int done = 0;
  SimTime start = tb->sim.now();
  for (int i = 0; i < kOps; i++) {
    StorageSolution::Op op = (i % 7 == 6) ? StorageSolution::Op::kFlush
                             : (i % 2)    ? StorageSolution::Op::kRead
                                          : StorageSolution::Op::kWrite;
    u64 len = (op == StorageSolution::Op::kFlush) ? 0 : 4096;
    sol->Submit(i % 4, op, static_cast<u64>(i % 64) * 4096, len, nullptr,
                [&](Status st) {
                  EXPECT_TRUE(st.ok()) << sol->name();
                  done++;
                });
  }
  tb->sim.Run();
  EXPECT_EQ(done, kOps) << sol->name();
  EXPECT_GT(tb->sim.now(), start) << sol->name() << ": no time advanced";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SolutionFaultTest,
    ::testing::Values(SolutionKind::kNvmetro, SolutionKind::kMdev,
                      SolutionKind::kPassthrough, SolutionKind::kVhostScsi,
                      SolutionKind::kQemu, SolutionKind::kSpdk,
                      SolutionKind::kNvmetroEncryption,
                      SolutionKind::kNvmetroSgx, SolutionKind::kDmCrypt,
                      SolutionKind::kNvmetroReplication,
                      SolutionKind::kDmMirror),
    [](const ::testing::TestParamInfo<SolutionKind>& pinfo) {
      std::string name = SolutionKindName(pinfo.param);
      for (auto& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- Injected-fault recovery scenarios ---------------------------------------------
//
// Deterministic FaultPlans against full solution stacks: every scenario
// must satisfy the bookkeeping invariants of the recovery machinery —
// per path, sends == completions + aborts + timeouts; every request
// reaches a guest-visible outcome; no trace span stays open; the
// replicator's dirty-region log is empty once resync finishes.

struct FaultScenarioTest : ::testing::Test {
  obs::Observability obs;  // declared first: outlives drive + bundle
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<SolutionBundle> bundle;

  void Build(SolutionKind kind, SolutionParams params = {}) {
    ssd::ControllerConfig drive = Testbed::DefaultDrive();
    drive.obs = &obs;
    tb = std::make_unique<Testbed>(drive);
    injector = std::make_unique<fault::FaultInjector>(&tb->sim, &obs);
    params.obs = &obs;
    params.fault = injector.get();
    bundle = SolutionBundle::Create(tb.get(), kind, params);
    ASSERT_NE(bundle, nullptr);
  }
};

TEST_F(FaultScenarioTest, StalledCommandsTimeOutInsteadOfHanging) {
  SolutionParams params;
  params.router_costs.request_timeout_ns = 2 * kMs;
  Build(SolutionKind::kNvmetro, params);
  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kCommandStall,
                         .count = 4});
  injector->Arm(plan);

  StorageSolution* sol = bundle->vm_solution(0);
  int ok = 0, failed = 0;
  for (int i = 0; i < 16; i++) {
    sol->Submit(i % 4, StorageSolution::Op::kRead,
                static_cast<u64>(i) * 4096, 4096, nullptr, [&](Status st) {
                  if (st.ok()) {
                    ok++;
                  } else {
                    failed++;
                  }
                });
  }
  tb->sim.Run();
  // The four swallowed commands surface as guest-visible timeouts; the
  // rest are untouched.
  EXPECT_EQ(injector->stalls_injected(), 4u);
  EXPECT_EQ(ok, 12);
  EXPECT_EQ(failed, 4);
  EXPECT_EQ(bundle->controller(0)->requests_timed_out(), 4u);
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.timeouts"), 4u);
  EXPECT_EQ(m.CounterValue("router.fast.timeouts"), 4u);
  ExpectRouterBooksBalance(obs);
}

TEST_F(FaultScenarioTest, TransientErrorsAreRetriedToSuccess) {
  SolutionParams params;
  params.router_costs.max_retries = 8;
  Build(SolutionKind::kNvmetro, params);
  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kDelayedError,
                         .count = 6,
                         .status = nvme::MakeStatus(
                             nvme::kSctGeneric, nvme::kScNamespaceNotReady),
                         .delay_ns = 20 * kUs});
  injector->Arm(plan);

  StorageSolution* sol = bundle->vm_solution(0);
  int ok = 0, failed = 0;
  for (int i = 0; i < 16; i++) {
    sol->Submit(i % 4, StorageSolution::Op::kRead,
                static_cast<u64>(i) * 4096, 4096, nullptr, [&](Status st) {
                  if (st.ok()) {
                    ok++;
                  } else {
                    failed++;
                  }
                });
  }
  tb->sim.Run();
  // Every transient error was absorbed by a backoff retry: the guest saw
  // sixteen clean completions.
  EXPECT_EQ(injector->errors_injected(), 6u);
  EXPECT_EQ(ok, 16);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(bundle->controller(0)->leg_retries(), 6u);
  EXPECT_EQ(obs.metrics().CounterValue("router.retries"), 6u);
  EXPECT_EQ(obs.metrics().CounterValue("router.timeouts"), 0u);
  ExpectRouterBooksBalance(obs);
}

TEST_F(FaultScenarioTest, LateCompletionAfterSlotRecycleIsDropped) {
  // Routing-slab reuse hazard regression: a delayed-error CQE that lands
  // AFTER its request's deadline abort must not resolve into the slot's
  // next occupant. The deadline frees the routing slot and orphans its
  // host cids; a second wave then recycles both the slab slot and the
  // cid-table slot, so the late CQE's cid handle carries a stale
  // generation and must be dropped on the floor.
  SolutionParams params;
  params.router_costs.request_timeout_ns = 500 * kUs;
  params.router_costs.max_retries = 2;
  Build(SolutionKind::kNvmetro, params);
  fault::FaultPlan plan;
  // Error CQEs arrive ~5 ms in — an order of magnitude after the 500 us
  // deadline has aborted the request and recycled its slot.
  plan.faults.push_back({.kind = fault::FaultKind::kDelayedError,
                         .count = 8,
                         .status = nvme::MakeStatus(
                             nvme::kSctGeneric, nvme::kScNamespaceNotReady),
                         .delay_ns = 5 * kMs});
  injector->Arm(plan);

  StorageSolution* sol = bundle->vm_solution(0);
  int first_ok = 0, first_failed = 0;
  for (int i = 0; i < 8; i++) {
    sol->Submit(i % 4, StorageSolution::Op::kRead,
                static_cast<u64>(i) * 4096, 4096, nullptr, [&](Status st) {
                  if (st.ok()) {
                    first_ok++;
                  } else {
                    first_failed++;
                  }
                });
  }
  // Second wave at 1 ms: the deadline has fired, the first wave's
  // slots and cids are free, and these requests recycle them while the
  // stale CQEs are still in flight.
  int second_ok = 0, second_failed = 0;
  tb->sim.ScheduleAfter(1 * kMs, [&] {
    for (int i = 0; i < 8; i++) {
      sol->Submit(i % 4, StorageSolution::Op::kRead,
                  static_cast<u64>(8 + i) * 4096, 4096, nullptr,
                  [&](Status st) {
                    if (st.ok()) {
                      second_ok++;
                    } else {
                      second_failed++;
                    }
                  });
    }
  });
  tb->sim.Run();

  // First wave: all eight time out (their only CQE is still ~4.5 ms away
  // when the deadline fires).
  EXPECT_EQ(first_ok, 0);
  EXPECT_EQ(first_failed, 8);
  EXPECT_EQ(bundle->controller(0)->requests_timed_out(), 8u);
  // Second wave: all eight complete cleanly — the stale CQEs must not
  // have completed (or failed) any recycled occupant.
  EXPECT_EQ(second_ok, 8);
  EXPECT_EQ(second_failed, 0);
  // Every late CQE was rejected by the cid generation check.
  EXPECT_EQ(bundle->controller(0)->stale_cid_drops(), 8u);
  // No retry fired: the error CQEs never reached a live request.
  EXPECT_EQ(bundle->controller(0)->leg_retries(), 0u);
  ExpectRouterBooksBalance(obs);
}

TEST_F(FaultScenarioTest, WedgedUifFailsOverToKernelPath) {
  SolutionParams params;
  params.router_costs.uif_liveness_timeout_ns = 200 * kUs;
  params.router_costs.uif_failover_to_kernel = true;
  Build(SolutionKind::kNvmetroReplication, params);
  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kUifWedge,
                         .at_ns = 0,
                         .duration_ns = 10 * kMs});
  injector->Arm(plan);

  StorageSolution* sol = bundle->vm_solution(0);
  int ok = 0, failed = 0;
  for (int i = 0; i < 8; i++) {
    sol->Submit(i % 4, StorageSolution::Op::kWrite,
                static_cast<u64>(i) * 4096, 4096, nullptr, [&](Status st) {
                  if (st.ok()) {
                    ok++;
                  } else {
                    failed++;
                  }
                });
  }
  tb->sim.Run();
  // The wedged UIF never answered; the liveness watchdog declared it
  // dead, dropped the stuck notify legs and re-routed them to the kernel
  // path — the guest never noticed.
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(failed, 0);
  EXPECT_TRUE(bundle->controller(0)->uif_dead());
  EXPECT_EQ(bundle->controller(0)->uif_failovers(), 1u);
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("uif.failovers"), 1u);
  EXPECT_EQ(m.CounterValue("router.notify.timeouts"), 8u);

  // With the UIF marked dead, later writes skip the notify path entirely
  // and go straight to the kernel device.
  u64 kernel_before = m.CounterValue("router.kernel.sends");
  for (int i = 0; i < 4; i++) {
    sol->Submit(0, StorageSolution::Op::kWrite,
                static_cast<u64>(32 + i) * 4096, 4096, nullptr,
                [&](Status st) {
                  EXPECT_TRUE(st.ok());
                  ok++;
                });
  }
  tb->sim.Run();
  EXPECT_EQ(ok, 12);
  EXPECT_EQ(m.CounterValue("router.kernel.sends"), kernel_before + 4);
  EXPECT_EQ(m.CounterValue("router.notify.sends"), 8u)
      << "a dead UIF still received requests";
  ExpectRouterBooksBalance(obs);
}

TEST_F(FaultScenarioTest, ReplicaOutageDegradesThenResyncs) {
  Build(SolutionKind::kNvmetroReplication);
  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kLinkDown,
                         .at_ns = 200 * kUs,
                         .duration_ns = 2 * kMs});
  injector->Arm(plan);

  StorageSolution* sol = bundle->vm_solution(0);
  functions::ReplicatorUif* repl = bundle->replicator(0);
  ASSERT_NE(repl, nullptr);

  // One distinct-pattern write every 100 us: before, during and after
  // the outage window.
  const int kWrites = 24;
  const u64 bs = 4096;
  std::vector<std::vector<u8>> pats(kWrites);
  Rng rng(55);
  int ok = 0;
  for (int i = 0; i < kWrites; i++) {
    pats[i].resize(bs);
    rng.Fill(pats[i].data(), bs);
    tb->sim.ScheduleAfter(static_cast<SimTime>(i) * 100 * kUs, [&, i] {
      sol->Submit(i % 4, StorageSolution::Op::kWrite, i * bs, bs,
                  pats[i].data(), [&](Status st) {
                    EXPECT_TRUE(st.ok()) << "write " << i;
                    ok++;
                  });
    });
  }
  tb->sim.Run();
  // Every write was acked despite the dead replica...
  EXPECT_EQ(ok, kWrites);
  EXPECT_GE(repl->writes_failed(), 1u);
  EXPECT_GE(repl->degraded_writes(), 1u);
  // ...and after the link healed, resync drained the dirty-region log
  // and left the mirror clean.
  EXPECT_FALSE(repl->degraded());
  EXPECT_FALSE(repl->resyncing());
  EXPECT_EQ(repl->dirty_regions(), 0u);
  EXPECT_EQ(repl->dirty_sectors(), 0u);
  EXPECT_GE(repl->resynced_sectors(), 8u);
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_GE(m.CounterValue("repl.degraded_writes"), 1u);
  EXPECT_GE(m.CounterValue("repl.resynced_lbas"), 8u);
  EXPECT_GE(m.CounterValue("repl.writes_failed"), 1u);
  // The secondary holds every pattern — including those written while it
  // was unreachable.
  for (int i = 0; i < kWrites; i++) {
    EXPECT_TRUE(bundle->secondary_drive(0)->store().Matches(
        i * bs, pats[i].data(), bs))
        << "secondary lost write " << i;
  }
  ExpectRouterBooksBalance(obs);
}

TEST(FaultSweep, RandomPlansNeverHangAnyStack) {
  const SolutionKind kKinds[] = {
      SolutionKind::kNvmetro,       SolutionKind::kMdev,
      SolutionKind::kPassthrough,   SolutionKind::kVhostScsi,
      SolutionKind::kQemu,          SolutionKind::kSpdk,
      SolutionKind::kNvmetroEncryption, SolutionKind::kNvmetroSgx,
      SolutionKind::kDmCrypt,       SolutionKind::kNvmetroReplication,
      SolutionKind::kDmMirror};
  const u64 kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 22, 33};
  for (SolutionKind kind : kKinds) {
    bool router = kind == SolutionKind::kNvmetro ||
                  kind == SolutionKind::kMdev ||
                  kind == SolutionKind::kNvmetroEncryption ||
                  kind == SolutionKind::kNvmetroSgx ||
                  kind == SolutionKind::kNvmetroReplication;
    for (u64 seed : kSeeds) {
      obs::Observability obs;
      ssd::ControllerConfig drive = Testbed::DefaultDrive();
      drive.obs = &obs;
      Testbed tb(drive);
      fault::FaultInjector injector(&tb.sim, &obs);
      SolutionParams params;
      params.obs = &obs;
      params.fault = &injector;
      fault::FaultCaps caps;
      if (router) {
        params.router_costs.request_timeout_ns = 5 * kMs;
        params.router_costs.max_retries = 3;
        params.router_costs.uif_liveness_timeout_ns = 300 * kUs;
        // Re-routing around a dead UIF is only sound when the function is
        // not a data transformation (encryption would be bypassed).
        params.router_costs.uif_failover_to_kernel =
            kind == SolutionKind::kNvmetroReplication;
      } else {
        caps.stalls = false;  // no host timeout machinery: a stall hangs
        caps.wedge = false;   // no UIF process to wedge
      }
      auto bundle = SolutionBundle::Create(&tb, kind, params);
      ASSERT_NE(bundle, nullptr);
      fault::FaultPlan plan = fault::FaultPlan::Random(seed, caps);
      injector.Arm(plan);
      SCOPED_TRACE(std::string(SolutionKindName(kind)) + " seed " +
                   std::to_string(seed) + " " + plan.ToString());

      // With a zero error budget over 1 ms windows, the SLO watchdog must
      // breach exactly when a request reached the guest with an error.
      obs::SloWatchdog slo(&obs.metrics(), &obs.flight(),
                           {.interval_ns = 1 * kMs});
      if (router) {
        slo.AddErrorRateTarget("errors", "router.failed", "router.requests",
                               0.0);
        slo.Start(0, 40 * kMs,
                  [&tb](SimTime at, std::function<void()> fn) {
                    tb.sim.ScheduleAt(at, std::move(fn));
                  });
      }

      StorageSolution* sol = bundle->vm_solution(0);
      const int kOps = 64;
      int done = 0;
      // Pace the ops so the load overlaps the plan's fault windows
      // (which land inside the first ~8 ms).
      for (int i = 0; i < kOps; i++) {
        tb.sim.ScheduleAfter(static_cast<SimTime>(i) * 150 * kUs, [&, i] {
          StorageSolution::Op op = (i % 7 == 6) ? StorageSolution::Op::kFlush
                                   : (i % 2)   ? StorageSolution::Op::kRead
                                               : StorageSolution::Op::kWrite;
          u64 len = (op == StorageSolution::Op::kFlush) ? 0 : 4096;
          sol->Submit(i % 4, op, static_cast<u64>(i % 32) * 4096, len,
                      nullptr, [&](Status) { done++; });
        });
      }
      tb.sim.Run();
      // Faults may fail individual ops, but every op must reach a
      // guest-visible outcome and the books must balance.
      EXPECT_EQ(done, kOps) << "a request hung";
      ExpectRouterBooksBalance(obs);
      if (router) {
        u64 failed = obs.metrics().CounterValue("router.failed");
        EXPECT_EQ(slo.breach_windows("errors") > 0, failed > 0)
            << slo.breach_windows("errors") << " breach windows, " << failed
            << " failed requests";
      }
    }
  }
}

}  // namespace
}  // namespace nvmetro::baselines
