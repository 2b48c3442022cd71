// Multi-tenant QoS tests (DESIGN.md §12).
//
// Three layers, mirroring how the scheduler is wired into the stack:
//
//  1. Property-style scheduler tests: the token ledger is exact — every
//     token granted came out of a reservation or the leftover pool, the
//     fractional-carry refill loses nothing under irregular tick
//     spacing, and a bucket can never go negative or exceed its depth.
//  2. Router-equivalence tests: with QoS detached the router is
//     bit-identical to the QoS-less router — same golden traces on all
//     five routing paths, same simulated end time, same router CPU. An
//     attached-but-uncontended scheduler keeps the trace shape (the
//     QOS_ADMIT span is only stamped for requests that actually parked).
//  3. Isolation tests: a misbehaving best-effort tenant ramping offered
//     load cannot move a latency-critical tenant's p999 beyond a pinned
//     tolerance, the best-effort tenant absorbs every shed, and the
//     invariants survive the fault matrix (command stalls + SQ-full
//     bursts) and a 1000-tenant scale run with a frozen metric registry.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/notify.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "fault/fault.h"
#include "functions/classifiers.h"
#include "functions/replicator_uif.h"
#include "kblock/devices.h"
#include "mem/address_space.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "qos/qos.h"
#include "ssd/controller.h"
#include "uif/framework.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::qos {
namespace {

using Action = AdmitResult::Action;

// --- Scheduler properties ----------------------------------------------------

TEST(QosSchedulerTest, RegistrationValidation) {
  QosConfig cfg;
  cfg.device_tokens_per_sec = 100'000;
  QosScheduler s(cfg);
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 1,
                                .cls = TenantClass::kLatencyCritical,
                                .reserved_tokens_per_sec = 60'000})
                  .ok());
  EXPECT_EQ(s.leftover_rate(), 40'000u);
  EXPECT_TRUE(s.HasTenant(1));

  // Duplicate id.
  EXPECT_EQ(s.RegisterTenant({.tenant_id = 1}).code(),
            StatusCode::kAlreadyExists);
  // LC reservations must leave the leftover pool non-negative.
  EXPECT_EQ(s.RegisterTenant({.tenant_id = 2,
                              .cls = TenantClass::kLatencyCritical,
                              .reserved_tokens_per_sec = 50'000})
                .code(),
            StatusCode::kInvalidArgument);
  // An exactly-fitting reservation is fine (leftover rate drops to 0).
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 3,
                                .cls = TenantClass::kLatencyCritical,
                                .reserved_tokens_per_sec = 40'000})
                  .ok());
  EXPECT_EQ(s.leftover_rate(), 0u);

  // Registration rebuilds the leftover pool, so it is fenced off once
  // traffic has started.
  EXPECT_EQ(s.Admit(1, 1, 0).action, Action::kAdmit);
  EXPECT_EQ(s.RegisterTenant({.tenant_id = 4}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(QosSchedulerTest, UnregisteredTenantsAreNotPoliced) {
  QosScheduler s(QosConfig{});
  AdmitResult r = s.Admit(99, 1000, 0);
  EXPECT_EQ(r.action, Action::kAdmit);
  EXPECT_EQ(s.total_granted(), 0u);  // nothing consumed
}

TEST(QosSchedulerTest, RefillIsExactUnderIrregularTickSpacing) {
  // A deliberately awkward rate and an effectively-unbounded bucket:
  // every fractional token must survive the carry. floor(rate * T / 1e9)
  // tokens over any horizon T, regardless of how the ticks land.
  QosConfig cfg;
  cfg.device_tokens_per_sec = 333'333;
  cfg.bucket_depth_ns = 3'600ull * kSec;  // never clamps once drained
  // Buckets start full (refill would clamp to zero): drain the pool at
  // t=0 so every subsequent tick's tokens land in the refill ledger.
  auto drain = [&](QosScheduler* s) {
    EXPECT_TRUE(s->RegisterTenant({.tenant_id = 1}).ok());
    u64 depth = s->leftover_depth();
    EXPECT_EQ(s->Admit(1, static_cast<u32>(depth), 0).action, Action::kAdmit);
    EXPECT_EQ(s->leftover_tokens(), 0u);
  };
  QosScheduler irregular(cfg);
  drain(&irregular);
  Rng rng(42);
  SimTime t = 0;
  for (int i = 0; i < 3000; i++) {
    t += 1 + static_cast<SimTime>(rng.NextBounded(997));
    irregular.AdvanceTo(t);
  }
  u64 expect = static_cast<u64>(static_cast<unsigned __int128>(333'333) *
                                static_cast<u64>(t) / 1'000'000'000);
  EXPECT_EQ(irregular.total_refilled(), expect);

  // The same horizon ticked every single nanosecond lands on the same
  // total: tick spacing is invisible to the ledger.
  QosScheduler dense(cfg);
  drain(&dense);
  for (SimTime u = 1; u <= t; u++) dense.AdvanceTo(u);
  EXPECT_EQ(dense.total_refilled(), expect);

  std::string err;
  EXPECT_TRUE(irregular.CheckConservation(&err)) << err;
  EXPECT_TRUE(dense.CheckConservation(&err)) << err;
}

TEST(QosSchedulerTest, TokenConservationOverSeededSchedule) {
  QosConfig cfg;
  cfg.device_tokens_per_sec = 250'000;
  QosScheduler s(cfg);
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 1,
                                .cls = TenantClass::kLatencyCritical,
                                .reserved_tokens_per_sec = 100'000})
                  .ok());
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 2}).ok());
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 3}).ok());

  Rng rng(7);
  SimTime t = 0;
  u64 admits = 0, defers = 0;
  std::string err;
  for (int i = 0; i < 20'000; i++) {
    t += static_cast<SimTime>(rng.NextBounded(2'000));
    u32 tid = 1 + static_cast<u32>(rng.NextBounded(3));
    u32 cost = 1 + static_cast<u32>(rng.NextBounded(8));
    u64 before = s.total_granted();
    u64 lc_before = s.tokens(1);
    u64 pool_before = s.leftover_tokens();
    AdmitResult r = s.Admit(tid, cost, t);
    if (r.action == Action::kAdmit) {
      admits++;
      // Granted exactly `cost`, never more, never a partial grant.
      ASSERT_EQ(s.total_granted(), before + cost);
    } else {
      defers++;
      // A deferral consumes nothing and promises a future, not the past.
      ASSERT_EQ(s.total_granted(), before);
      ASSERT_GE(s.tokens(1), lc_before);
      ASSERT_GE(s.leftover_tokens(), pool_before);
      ASSERT_GE(r.retry_at, t + cfg.min_backoff_ns);
    }
    if (i % 64 == 0) {
      ASSERT_TRUE(s.CheckConservation(&err)) << err;
    }
  }
  EXPECT_GT(admits, 0u);
  EXPECT_GT(defers, 0u);  // the schedule must actually exercise deferral
  EXPECT_TRUE(s.CheckConservation(&err)) << err;
  EXPECT_EQ(s.granted(1) + s.granted(2) + s.granted(3), s.total_granted());
}

TEST(QosSchedulerTest, DeferConsumesNothingAndRetryAtCoversDeficit) {
  QosConfig cfg;
  cfg.device_tokens_per_sec = 10'000;  // 10 tokens/ms
  cfg.bucket_depth_ns = 1 * kMs;       // depth 10
  QosScheduler s(cfg);
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 1}).ok());

  // Drain the full initial pool, then ask for more than remains.
  EXPECT_EQ(s.Admit(1, 10, 0).action, Action::kAdmit);
  AdmitResult r = s.Admit(1, 4, 0);
  ASSERT_EQ(r.action, Action::kDefer);
  EXPECT_EQ(s.leftover_tokens(), 0u);
  // 4 tokens at 10/ms take 400 us to accrue.
  EXPECT_GE(r.retry_at, static_cast<SimTime>(400) * kUs);
  // Asking again at retry_at succeeds: the promise is honored exactly.
  EXPECT_EQ(s.Admit(1, 4, r.retry_at).action, Action::kAdmit);
  std::string err;
  EXPECT_TRUE(s.CheckConservation(&err)) << err;
}

TEST(QosSchedulerTest, BestEffortDrawsLeftoverOnly) {
  QosConfig cfg;
  cfg.device_tokens_per_sec = 100'000;
  QosScheduler s(cfg);
  // The whole device rate is reserved: the leftover pool refills at 0.
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 1,
                                .cls = TenantClass::kLatencyCritical,
                                .reserved_tokens_per_sec = 100'000})
                  .ok());
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 2}).ok());
  EXPECT_EQ(s.leftover_rate(), 0u);
  EXPECT_EQ(s.leftover_depth(), 0u);

  // The BE tenant cannot touch the LC reservation even while it is full.
  EXPECT_EQ(s.tokens(1), s.bucket_depth(1));
  AdmitResult r = s.Admit(2, 1, 1 * kMs);
  ASSERT_EQ(r.action, Action::kDefer);
  // Zero effective rate: the deferral is a poll, not a promise.
  EXPECT_EQ(r.retry_at, 1 * kMs + cfg.zero_rate_poll_ns);
  EXPECT_EQ(s.tokens(1), s.bucket_depth(1));  // LC bucket untouched

  // The LC tenant itself is unaffected.
  EXPECT_EQ(s.Admit(1, 1, 1 * kMs).action, Action::kAdmit);
}

TEST(QosSchedulerTest, LatencyCriticalBorrowsLeftoverAfterReservation) {
  QosConfig cfg;
  cfg.device_tokens_per_sec = 100'000;
  cfg.bucket_depth_ns = 1 * kMs;
  QosScheduler s(cfg);
  // Reservation bucket holds 40 tokens, leftover pool 60.
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 1,
                                .cls = TenantClass::kLatencyCritical,
                                .reserved_tokens_per_sec = 40'000})
                  .ok());
  // One oversized burst: 70 = all 40 reserved + 30 borrowed leftover.
  ASSERT_EQ(s.Admit(1, 70, 0).action, Action::kAdmit);
  EXPECT_EQ(s.tokens(1), 0u);           // reservation consumed first
  EXPECT_EQ(s.leftover_tokens(), 30u);  // remainder borrowed
  EXPECT_EQ(s.granted(1), 70u);
  std::string err;
  EXPECT_TRUE(s.CheckConservation(&err)) << err;
}

TEST(QosSchedulerTest, BucketsClampAtDepthAcrossIdleGaps) {
  QosConfig cfg;
  cfg.device_tokens_per_sec = 50'000;
  cfg.bucket_depth_ns = 1 * kMs;  // depth 50
  QosScheduler s(cfg);
  ASSERT_TRUE(s.RegisterTenant({.tenant_id = 1}).ok());
  // A second of idle time cannot bank more than one bucket depth.
  s.AdvanceTo(1 * kSec);
  EXPECT_EQ(s.leftover_tokens(), s.leftover_depth());
  std::string err;
  ASSERT_TRUE(s.CheckConservation(&err)) << err;
  // And the post-clamp ledger still balances after the pool drains.
  EXPECT_EQ(s.Admit(1, 50, 1 * kSec).action, Action::kAdmit);
  EXPECT_TRUE(s.CheckConservation(&err)) << err;
}

}  // namespace
}  // namespace nvmetro::qos

// --- Router integration ------------------------------------------------------

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

constexpr NvmeStatus kShedStatus =
    nvme::MakeStatus(nvme::kSctGeneric, nvme::kScNamespaceNotReady);

/// Echoes success synchronously (notify-path target).
struct EchoUif : uif::UifBase {
  bool work(const nvme::Sqe&, u32, u16& status) override {
    status = nvme::kStatusSuccess;
    return false;
  }
};

/// Single-VM router stack with an optional QoS scheduler, mirroring
/// tests/obs_test.cc's ObsRouterFixture so the golden traces pinned
/// there can be asserted unchanged here. A plain struct (not a Test)
/// so equivalence tests can run two stacks side by side.
struct QosRouterStack {
  obs::Observability obs;
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<NvmetroHost> host;
  VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;
  std::unique_ptr<qos::QosScheduler> sched;

  enum class QosMode {
    kOff,       // never attached
    kDetached,  // attached, then detached before traffic
    kGenerous,  // attached with a rate no workload here can exhaust
  };

  bool Build(QosMode mode, const char* classifier_asm = nullptr,
             qos::QosConfig qcfg = {.device_tokens_per_sec = 10'000'000},
             qos::TenantConfig tcfg = {.tenant_id = 1}) {
    ssd::ControllerConfig cfg;
    cfg.capacity = 64 * MiB;
    cfg.obs = &obs;
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    vm = std::make_unique<virt::Vm>(&sim,
                                    virt::VmConfig{.memory_bytes = 32 * MiB});
    NvmetroHost::Config hcfg;
    hcfg.obs = &obs;
    host = std::make_unique<NvmetroHost>(&sim, phys.get(), hcfg);
    vc = host->CreateController(vm.get(), {.vm_id = 1});
    auto prog = classifier_asm ? ebpf::Assemble(classifier_asm)
                               : functions::PassthroughClassifier();
    EXPECT_TRUE(prog.ok());
    if (!prog.ok()) return false;
    EXPECT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    if (mode != QosMode::kOff) {
      sched = std::make_unique<qos::QosScheduler>(qcfg, &obs);
      EXPECT_TRUE(sched->RegisterTenant(tcfg).ok());
      vc->AttachQos(sched.get(), tcfg.tenant_id);
      if (mode == QosMode::kDetached) vc->AttachQos(nullptr, 0);
    }
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    EXPECT_TRUE(driver->Init(1).ok());
    return true;
  }

  /// Submits one I/O, runs to completion, returns its trace-span id.
  u64 RunOne(bool write, u64 lba, NvmeStatus* status_out = nullptr) {
    u64 buf = *vm->memory().AllocPages(1);
    nvme::Sqe s = write ? nvme::MakeWrite(1, lba, 1, buf, 0)
                        : nvme::MakeRead(1, lba, 1, buf, 0);
    NvmeStatus status = 0xFFF;
    driver->Submit(0, s, [&](NvmeStatus st, u32) { status = st; });
    sim.Run();
    if (status_out) *status_out = status;
    return obs.trace().requests_opened();
  }
};

struct QosRouterFixture : ::testing::Test, QosRouterStack {};

// The five golden traces from tests/obs_test.cc, pinned verbatim. The
// equivalence tests below assert each path produces its exact string in
// every QoS mode — QoS-off must be bit-identical to today's router, and
// an attached-but-uncontended scheduler must not change the trace shape
// (no QOS_ADMIT span without an actual wait).
constexpr const char* kFastGolden =
    "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > HCQ_COMPLETE > "
    "VCQ_POST > IRQ_INJECT";
constexpr const char* kKernelGolden =
    "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_KERNEL > KBIO_DONE > "
    "KCQ_COMPLETE > VCQ_POST > IRQ_INJECT";
constexpr const char* kNotifyGolden =
    "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_NOTIFY > UIF_WORK > "
    "UIF_RESPOND > NCQ_COMPLETE > VCQ_POST > IRQ_INJECT";
constexpr const char* kFanoutGolden =
    "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > DISPATCH_NOTIFY > "
    "UIF_WORK > UIF_RESPOND > NCQ_COMPLETE > HCQ_COMPLETE > "
    "VCQ_POST > IRQ_INJECT";
constexpr const char* kDirectGolden =
    "VSQ_POP > CLASSIFIER(VSQ) > VCQ_POST > IRQ_INJECT";

class QosEquivalenceTest
    : public QosRouterFixture,
      public ::testing::WithParamInterface<QosRouterStack::QosMode> {};

INSTANTIATE_TEST_SUITE_P(
    AllModes, QosEquivalenceTest,
    ::testing::Values(QosRouterStack::QosMode::kOff,
                      QosRouterStack::QosMode::kDetached,
                      QosRouterStack::QosMode::kGenerous),
    [](const auto& pinfo) {
      switch (pinfo.param) {
        case QosRouterStack::QosMode::kOff: return "QosOff";
        case QosRouterStack::QosMode::kDetached: return "QosDetached";
        case QosRouterStack::QosMode::kGenerous: return "QosUncontended";
      }
      return "Unknown";
    });

TEST_P(QosEquivalenceTest, FastPathGoldenTrace) {
  ASSERT_TRUE(Build(GetParam()));
  NvmeStatus st = 0;
  u64 id = RunOne(false, 0, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  EXPECT_EQ(obs.trace().PathString(id), kFastGolden);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_P(QosEquivalenceTest, KernelPathGoldenTrace) {
  const char* kAllToKernel =
      "  mov r0, 0x480000\n"  // SEND_KQ | WILL_COMPLETE_KQ
      "  exit\n";
  ASSERT_TRUE(Build(GetParam(), kAllToKernel));
  auto kdev =
      std::make_unique<kblock::NvmeBlockDevice>(&sim, phys.get(), &dma, 1);
  vc->AttachKernelDevice(kdev.get());
  NvmeStatus st = 0;
  u64 id = RunOne(true, 4, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  EXPECT_EQ(obs.trace().PathString(id), kKernelGolden);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_P(QosEquivalenceTest, NotifyPathGoldenTrace) {
  const char* kAllToUif =
      "  mov r0, 0x240000\n"  // SEND_NQ | WILL_COMPLETE_NQ
      "  exit\n";
  ASSERT_TRUE(Build(GetParam(), kAllToUif));
  NotifyChannel channel;
  uif::UifHostParams params;
  params.obs = &obs;
  uif::UifHost uif_host(&sim, "echo", params);
  EchoUif echo;
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &echo);
  uif_host.Start();
  NvmeStatus st = 0;
  u64 id = RunOne(true, 0, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  EXPECT_EQ(obs.trace().PathString(id), kNotifyGolden);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_P(QosEquivalenceTest, MirrorFanoutGoldenTrace) {
  ASSERT_TRUE(Build(GetParam(), functions::ReplicatorClassifierAsm()));
  NotifyChannel channel;
  uif::UifHostParams params;
  params.obs = &obs;
  uif::UifHost uif_host(&sim, "repl", params);
  kblock::RamBlockDevice secondary(&sim, 32 * MiB);
  functions::ReplicatorUif repl(&secondary);
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &repl);
  uif_host.Start();
  NvmeStatus st = 0;
  u64 id = RunOne(true, 8, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  EXPECT_EQ(obs.trace().PathString(id), kFanoutGolden);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_P(QosEquivalenceTest, DirectMediationGoldenTrace) {
  // ReadOnly rejects the write at the classifier. The rejection happens
  // *after* admission: QoS polices entry, not verdicts.
  ASSERT_TRUE(Build(GetParam(), functions::ReadOnlyClassifierAsm()));
  NvmeStatus st = 0;
  u64 id = RunOne(true, 0, &st);
  EXPECT_FALSE(nvme::StatusOk(st));
  EXPECT_EQ(obs.trace().PathString(id), kDirectGolden);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_F(QosRouterFixture, QosOffTimingBitIdenticalToDetached) {
  // Same closed-loop workload on a never-attached stack and on an
  // attach-then-detach stack: simulated end time, router CPU, and event
  // counts must match exactly — detaching leaves zero residue. (An
  // *attached* scheduler legitimately differs: it charges qos_admit_ns.)
  struct Run {
    SimTime end = 0;
    u64 cpu = 0;
    u64 opened = 0;
    u64 events = 0;
  };
  auto run = [](QosMode mode) {
    QosRouterStack f;
    if (!f.Build(mode)) return Run{};
    for (int i = 0; i < 20; i++) f.RunOne(i % 2 == 0, i % 7);
    return Run{f.sim.now(), f.host->RouterCpuBusyNs(),
               f.obs.trace().requests_opened(),
               f.obs.trace().total_recorded()};
  };
  Run off = run(QosMode::kOff);
  Run detached = run(QosMode::kDetached);
  EXPECT_EQ(off.end, detached.end);
  EXPECT_EQ(off.cpu, detached.cpu);
  EXPECT_EQ(off.opened, detached.opened);
  EXPECT_EQ(off.events, detached.events);
  EXPECT_GT(off.opened, 0u);
}

TEST_F(QosRouterFixture, DeferredRequestStampsQosWaitExactly) {
  // One token in the bucket, two requests: the second parks until the
  // 1-token/ms refill covers it. Its span gains a QOS_ADMIT stamp and
  // the parked time lands — exactly — in the qos_wait stage.
  qos::QosConfig qcfg;
  qcfg.device_tokens_per_sec = 1'000;  // 1 token/ms
  qcfg.bucket_depth_ns = 1 * kMs;      // depth 1
  ASSERT_TRUE(Build(QosMode::kGenerous, nullptr, qcfg, {.tenant_id = 1}));
  u64 buf = *vm->memory().AllocPages(1);
  int done = 0;
  for (int i = 0; i < 2; i++) {
    driver->Submit(0, nvme::MakeRead(1, i, 1, buf, 0),
                   [&](NvmeStatus st, u32) {
                     EXPECT_EQ(st, nvme::kStatusSuccess);
                     done++;
                   });
  }
  sim.Run();
  ASSERT_EQ(done, 2);
  EXPECT_EQ(obs.trace().PathString(1), kFastGolden);
  EXPECT_EQ(obs.trace().PathString(2),
            "VSQ_POP > QOS_ADMIT > CLASSIFIER(VSQ) > DISPATCH_FAST > "
            "HCQ_COMPLETE > VCQ_POST > IRQ_INJECT");
  EXPECT_EQ(vc->qos_deferrals(), 1u);
  EXPECT_EQ(vc->qos_sheds(), 0u);
  EXPECT_EQ(vc->qos_waiting(), 0u);
  EXPECT_EQ(sched->deferrals(1), 1u);

  // The wait is attributed exactly: per-request stage sums still equal
  // e2e, and the deferred request's qos_wait stage holds its parked ns.
  obs::SpanAnalyzer an;
  an.Analyze(obs.trace());
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
  ASSERT_EQ(an.requests().size(), 2u);
  const auto& first = an.requests()[0];
  const auto& second = an.requests()[1];
  EXPECT_EQ(first.stage_ns[static_cast<usize>(obs::Stage::kQosWait)], 0u);
  EXPECT_GT(second.stage_ns[static_cast<usize>(obs::Stage::kQosWait)], 0u);
  // The wait histogram saw the same parked duration.
  const LatencyHistogram* waits =
      obs.metrics().FindHistogram("qos.tenant1.wait_ns");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->count(), 1u);
  EXPECT_EQ(waits->max(),
            second.stage_ns[static_cast<usize>(obs::Stage::kQosWait)]);
  EXPECT_TRUE(sched->CheckConservation(&err)) << err;
}

TEST_F(QosRouterFixture, DeferralBoundShedsWithBusyStatus) {
  // Deferral ring of 2: of five back-to-back submits, one admits, two
  // park, two shed with the busy status. The parked pair completes once
  // tokens accrue; every shed is accounted to the tenant.
  qos::QosConfig qcfg;
  qcfg.device_tokens_per_sec = 1'000;
  qcfg.bucket_depth_ns = 1 * kMs;
  ASSERT_TRUE(Build(QosMode::kGenerous, nullptr, qcfg,
                    {.tenant_id = 1, .max_deferred = 2}));
  u64 buf = *vm->memory().AllocPages(1);
  int ok = 0, shed = 0;
  for (int i = 0; i < 5; i++) {
    driver->Submit(0, nvme::MakeRead(1, i, 1, buf, 0),
                   [&](NvmeStatus st, u32) {
                     if (nvme::StatusOk(st)) {
                       ok++;
                     } else if (st == kShedStatus) {
                       shed++;
                     }
                   });
  }
  sim.Run();
  EXPECT_EQ(ok, 3);    // 1 admitted + 2 parked-then-admitted
  EXPECT_EQ(shed, 2);  // over the bound
  EXPECT_EQ(vc->qos_sheds(), 2u);
  EXPECT_EQ(sched->sheds(1), 2u);
  EXPECT_EQ(obs.metrics().CounterValue("qos.tenant1.shed"), 2u);
  EXPECT_EQ(vc->qos_waiting(), 0u);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
  // Shed spans carry the QOS_SHED mark.
  usize shed_spans = 0;
  for (const auto& ev : obs.trace().Events()) {
    if (ev.kind == obs::SpanKind::kQosShed) shed_spans++;
  }
  EXPECT_EQ(shed_spans, 2u);
  std::string err;
  EXPECT_TRUE(sched->CheckConservation(&err)) << err;
}

// --- Isolation ---------------------------------------------------------------

struct TenantBook {
  u64 submitted = 0;
  u64 ok = 0;
  u64 shed = 0;
  u64 other_fail = 0;
  bool Balanced() const { return submitted == ok + shed + other_fail; }
};

struct IsolationOut {
  TenantBook lc, be;
  u64 lc_p999 = 0;
  u64 lc_count = 0;
  u64 lc_sheds = 0, be_sheds = 0;
  u64 lc_slo_breach_windows = 0;
  u64 open_requests = 0;
  bool conserved = false;
  std::string conserve_err;
};

/// One latency-critical tenant at a fixed 10k IOPS against one
/// best-effort tenant at `be_interval` spacing, 40 ms horizon, single
/// router worker, shared physical drive. With `faults`, command stalls
/// and an SQ-full burst run concurrently (and host-side timeouts are
/// armed so stalls are survivable).
IsolationOut RunIsolation(u64 seed, SimTime be_interval, bool faults) {
  obs::Observability obs;
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig ccfg;
  ccfg.capacity = 64 * MiB;
  ccfg.obs = &obs;
  // Disable the drive's intrinsic slow-op tail so the p999-shift assertion
  // measures cross-tenant interference rather than seed-dependent firmware
  // retry draws (1.5% of ops at 2.6x would dominate a few-hundred-sample max).
  ccfg.latency.slow_op_rate = 0.0;
  auto phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, ccfg);
  fault::FaultInjector injector(&sim, &obs);
  if (faults) {
    phys->SetFaultInjector(&injector);
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::FaultSpec stall;
    stall.kind = fault::FaultKind::kCommandStall;
    stall.count = 4;
    stall.probability = 0.002;
    plan.faults.push_back(stall);
    fault::FaultSpec burst;
    burst.kind = fault::FaultKind::kSqFullBurst;
    burst.at_ns = 5 * kMs;
    burst.duration_ns = 2 * kMs;
    plan.faults.push_back(burst);
    injector.Arm(plan);
  }
  NvmetroHost::Config hcfg;
  hcfg.obs = &obs;
  hcfg.num_workers = 1;
  if (faults) {
    hcfg.costs.request_timeout_ns = 2 * kMs;
    hcfg.costs.max_retries = 2;
  }
  auto host = std::make_unique<NvmetroHost>(&sim, phys.get(), hcfg);

  qos::QosConfig qcfg;
  qcfg.device_tokens_per_sec = 50'000;
  qos::QosScheduler sched(qcfg, &obs);
  EXPECT_TRUE(sched
                  .RegisterTenant({.tenant_id = 1,
                                   .cls = qos::TenantClass::kLatencyCritical,
                                   .reserved_tokens_per_sec = 25'000,
                                   .slo_latency_ns = 1 * kMs})
                  .ok());
  EXPECT_TRUE(sched.RegisterTenant({.tenant_id = 2}).ok());

  std::vector<std::unique_ptr<virt::Vm>> vms;
  std::vector<std::unique_ptr<virt::GuestNvmeDriver>> drivers;
  for (u32 i = 1; i <= 2; i++) {
    vms.push_back(std::make_unique<virt::Vm>(
        &sim, virt::VmConfig{.memory_bytes = 1 * MiB, .vcpus = 1}));
    VirtualController* vc =
        host->CreateController(vms.back().get(), {.vm_id = i});
    auto prog = functions::PassthroughClassifier();
    EXPECT_TRUE(prog.ok());
    EXPECT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    vc->AttachQos(&sched, i);
  }
  host->Start();
  for (u32 i = 0; i < 2; i++) {
    drivers.push_back(std::make_unique<virt::GuestNvmeDriver>(
        vms[i].get(), host->controller(i)));
    EXPECT_TRUE(drivers.back()->Init(1).ok());
  }

  obs::SloWatchdog slo(&obs.metrics(), &obs.flight(), {});
  sched.ArmSloTargets(&slo);
  const SimTime horizon = 40 * kMs;
  slo.Start(0, horizon, [&](SimTime at, std::function<void()> fn) {
    sim.ScheduleAt(at, std::move(fn));
  });

  IsolationOut out;
  Rng rng(seed);
  u64 bufs[2] = {*vms[0]->memory().AllocPages(1),
                 *vms[1]->memory().AllocPages(1)};
  auto drive = [&](u32 idx, SimTime interval, TenantBook* book) {
    SimTime t = 10 * kUs + static_cast<SimTime>(rng.NextBounded(interval));
    for (; t < horizon; t += interval) {
      u64 lba = rng.NextBounded(1'000);
      sim.ScheduleAt(t, [&sim, &drivers, idx, lba, book, bufs] {
        (void)sim;
        book->submitted++;
        drivers[idx]->Submit(
            0, nvme::MakeRead(1, lba, 1, bufs[idx], 0),
            [book](NvmeStatus st, u32) {
              if (nvme::StatusOk(st)) {
                book->ok++;
              } else if (st == kShedStatus) {
                book->shed++;
              } else {
                book->other_fail++;
              }
            });
      });
    }
  };
  drive(0, 100 * kUs, &out.lc);  // 10k IOPS, well inside the reservation
  drive(1, be_interval, &out.be);
  sim.Run();

  const LatencyHistogram* lc_lat =
      obs.metrics().FindHistogram("qos.tenant1.latency_ns");
  if (lc_lat) {
    out.lc_p999 = lc_lat->Quantile(0.999);
    out.lc_count = lc_lat->count();
  }
  out.lc_sheds = sched.sheds(1);
  out.be_sheds = sched.sheds(2);
  out.lc_slo_breach_windows = slo.breach_windows("qos.tenant1");
  out.open_requests = obs.trace().open_requests();
  out.conserved = sched.CheckConservation(&out.conserve_err);
  return out;
}

TEST(QosIsolationTest, MisbehavingTenantCannotMoveLcTailLatency) {
  // Gentle BE neighbor (5k IOPS) vs. the same neighbor flooding at 40x
  // its fair share (200k IOPS against a 25k tokens/s leftover pool).
  // The LC tenant's p999 may shift only within the pinned tolerance,
  // and every shed lands on the misbehaving tenant.
  constexpr u64 kToleranceNs = 25 * kUs;
  for (u64 seed : {1ull, 7ull, 23ull}) {
    IsolationOut gentle = RunIsolation(seed, 200 * kUs, /*faults=*/false);
    IsolationOut flood = RunIsolation(seed, 5 * kUs, /*faults=*/false);

    ASSERT_GT(gentle.lc_count, 0u);
    ASSERT_GT(flood.lc_count, 0u);
    // The isolation claim itself.
    EXPECT_LE(flood.lc_p999, gentle.lc_p999 + kToleranceNs)
        << "seed " << seed << ": LC p999 moved from " << gentle.lc_p999
        << "ns to " << flood.lc_p999 << "ns under BE flood";
    // The LC tenant never sheds; the flood is absorbed by the BE tenant.
    EXPECT_EQ(flood.lc_sheds, 0u);
    EXPECT_EQ(flood.lc.shed, 0u);
    EXPECT_GT(flood.be_sheds, 0u);
    EXPECT_EQ(flood.be.shed, flood.be_sheds);
    // BE still gets goodput (shed, not starved).
    EXPECT_GT(flood.be.ok, 0u);
    // Books balance and nothing leaks, both runs.
    for (const IsolationOut* o : {&gentle, &flood}) {
      EXPECT_TRUE(o->lc.Balanced());
      EXPECT_TRUE(o->be.Balanced());
      EXPECT_EQ(o->open_requests, 0u);
      EXPECT_TRUE(o->conserved) << o->conserve_err;
      EXPECT_EQ(o->lc_slo_breach_windows, 0u);
    }
  }
}

TEST(QosIsolationTest, QosComposesWithFaultRecovery) {
  // The same flood scenario under the fault matrix: command stalls and
  // an SQ-full burst. Faults divert per-command randomness, so exact
  // latencies are not comparable across runs — the composition claim is
  // that every structural invariant still holds: books balance, no
  // request leaks, the token ledger stays exact, and the LC tenant
  // still never sheds.
  for (u64 seed : {3ull, 11ull}) {
    IsolationOut out = RunIsolation(seed, 5 * kUs, /*faults=*/true);
    EXPECT_TRUE(out.lc.Balanced());
    EXPECT_TRUE(out.be.Balanced());
    EXPECT_EQ(out.open_requests, 0u);
    EXPECT_TRUE(out.conserved) << out.conserve_err;
    EXPECT_EQ(out.lc_sheds, 0u);
    EXPECT_GT(out.be_sheds, 0u);
    EXPECT_GT(out.lc.ok, 0u);  // the LC tenant survived the fault window
  }
}

TEST(QosIsolationTest, ThousandTenantsBoundedMemory) {
  // 1000 tagged VMs on one scheduler: the run completes a fixed
  // horizon, every tenant's metrics exist, and the registry is frozen
  // after registration — the QoS hot path allocates nothing per IO.
  constexpr u32 kTenants = 1000;
  obs::Observability obs;
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig ccfg;
  ccfg.capacity = 64 * MiB;
  ccfg.max_io_queues = kTenants + 8;
  ccfg.obs = &obs;
  auto phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, ccfg);
  NvmetroHost::Config hcfg;
  hcfg.obs = &obs;
  hcfg.num_workers = 4;
  auto host = std::make_unique<NvmetroHost>(&sim, phys.get(), hcfg);

  qos::QosConfig qcfg;
  qcfg.device_tokens_per_sec = 2'000'000;
  qos::QosScheduler sched(qcfg, &obs);
  for (u32 i = 1; i <= kTenants; i++) {
    // Every fifth tenant is latency-critical with a small reservation.
    qos::TenantConfig t{.tenant_id = i};
    if (i % 5 == 0) {
      t.cls = qos::TenantClass::kLatencyCritical;
      t.reserved_tokens_per_sec = 5'000;
    }
    ASSERT_TRUE(sched.RegisterTenant(t).ok());
  }
  ASSERT_EQ(sched.num_tenants(), kTenants);

  std::vector<std::unique_ptr<virt::Vm>> vms;
  std::vector<std::unique_ptr<virt::GuestNvmeDriver>> drivers;
  vms.reserve(kTenants);
  drivers.reserve(kTenants);
  for (u32 i = 1; i <= kTenants; i++) {
    vms.push_back(std::make_unique<virt::Vm>(
        &sim, virt::VmConfig{.memory_bytes = 256 * KiB, .vcpus = 1}));
    VirtualController* vc =
        host->CreateController(vms.back().get(), {.vm_id = i});
    auto prog = functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    vc->AttachQos(&sched, i);
  }
  host->Start();
  virt::GuestNvmeParams gp;
  gp.queue_entries = 16;
  for (u32 i = 0; i < kTenants; i++) {
    drivers.push_back(std::make_unique<virt::GuestNvmeDriver>(
        vms[i].get(), host->controller(i), gp));
    ASSERT_TRUE(drivers.back()->Init(1).ok());
  }

  // The registry must not grow past this point: per-tenant metrics were
  // all created at RegisterTenant / AttachQos time.
  const usize registry_size = obs.metrics().size();

  u64 ok = 0, failed = 0;
  Rng rng(99);
  constexpr int kIosPerTenant = 3;
  for (int round = 0; round < kIosPerTenant; round++) {
    for (u32 i = 0; i < kTenants; i++) {
      SimTime at = 1 + static_cast<SimTime>(round) * 2 * kMs +
                   static_cast<SimTime>(rng.NextBounded(1 * kMs));
      u64 lba = rng.NextBounded(100);
      sim.ScheduleAt(at, [&, i, lba] {
        u64 buf = *vms[i]->memory().AllocPages(1);
        drivers[i]->Submit(0, nvme::MakeRead(1, lba, 1, buf, 0),
                           [&, i, buf](NvmeStatus st, u32) {
                             if (nvme::StatusOk(st)) {
                               ok++;
                             } else {
                               failed++;
                             }
                             vms[i]->memory().FreePages(buf, 1);
                           });
      });
    }
  }
  sim.Run();

  EXPECT_EQ(ok, static_cast<u64>(kTenants) * kIosPerTenant);
  EXPECT_EQ(failed, 0u);
  // Frozen registry: IO volume registered nothing new.
  EXPECT_EQ(obs.metrics().size(), registry_size);
  // Per-tenant metrics exported for every tenant, populated by traffic.
  for (u32 i = 1; i <= kTenants; i++) {
    std::string base = "qos.tenant" + std::to_string(i);
    const obs::Counter* admitted = obs.metrics().FindCounter(base + ".admitted");
    ASSERT_NE(admitted, nullptr) << base;
    EXPECT_EQ(admitted->value(), static_cast<u64>(kIosPerTenant)) << base;
    ASSERT_NE(obs.metrics().FindHistogram(base + ".latency_ns"), nullptr);
    EXPECT_EQ(obs.metrics().FindHistogram(base + ".latency_ns")->count(),
              static_cast<u64>(kIosPerTenant))
        << base;
  }
  EXPECT_EQ(obs.trace().open_requests(), 0u);
  std::string err;
  EXPECT_TRUE(sched.CheckConservation(&err)) << err;
  EXPECT_EQ(sched.total_granted(),
            static_cast<u64>(kTenants) * kIosPerTenant);
}

}  // namespace
}  // namespace nvmetro::core
