// Router robustness under stress and failure: routing-table exhaustion,
// notify-channel overflow, UIF detach mid-flight, VCQ backpressure, long
// ring-wrap runs, and sustained mixed traffic with data verification.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/notify.h"
#include "crypto/xts.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "functions/classifiers.h"
#include "functions/encryptor_uif.h"
#include "functions/replicator_uif.h"
#include "mem/address_space.h"
#include "mem/arena.h"
#include "kblock/devices.h"
#include "nvme/prp.h"
#include "obs/obs.h"
#include "router_books.h"
#include "ssd/controller.h"
#include "uif/framework.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

struct StressFixture : ::testing::Test {
  obs::Observability obs;  // outlives every pointer-caching component
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<NvmetroHost> host;
  VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;

  void Build(const char* classifier_asm = nullptr, u32 queues = 2) {
    ssd::ControllerConfig cfg;
    cfg.capacity = 256 * MiB;
    cfg.obs = &obs;
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    virt::VmConfig vm_cfg;
    vm_cfg.memory_bytes = 64 * MiB;
    vm = std::make_unique<virt::Vm>(&sim, vm_cfg);
    NvmetroHost::Config hcfg;
    hcfg.obs = &obs;
    host = std::make_unique<NvmetroHost>(&sim, phys.get(), hcfg);
    vc = host->CreateController(vm.get(), {.vm_id = 1});
    auto prog = classifier_asm ? ebpf::Assemble(classifier_asm)
                               : functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    ASSERT_TRUE(driver->Init(queues).ok());
  }

  /// Tests that deliberately strand requests (undrained notify channel)
  /// opt out and assert the exact leak count themselves.
  bool expect_drained = true;

  /// Post-run bookkeeping invariants that must hold after ANY drained
  /// stress run, however hostile: every started request reached exactly
  /// one guest-visible outcome, every per-path send was matched by a
  /// completion, an abort or a timeout, and no trace span was left open.
  void TearDown() override {
    if (!host || !expect_drained) return;
    ExpectRouterBooksBalance(obs);
  }
};

TEST_F(StressFixture, ThousandsOfRequestsWrapEveryRing) {
  Build();
  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  Rng rng(1);
  int completed = 0;
  int issued = 0;
  const int kTotal = 5'000;  // far beyond the 256-entry rings

  // Closed loop at a small depth so rings wrap dozens of times.
  std::function<void(u32)> issue = [&](u32 q) {
    if (issued >= kTotal) return;
    issued++;
    nvme::Sqe sqe = (issued % 2) ? nvme::MakeWrite(1, issued % 1000, 1, buf, 0)
                                 : nvme::MakeRead(1, issued % 1000, 1, buf, 0);
    driver->Submit(q, sqe, [&, q](NvmeStatus st, u32) {
      EXPECT_EQ(st, nvme::kStatusSuccess);
      completed++;
      issue(q);
    });
  };
  for (u32 q = 0; q < 2; q++) {
    for (int d = 0; d < 16; d++) issue(q);
  }
  sim.Run();
  EXPECT_EQ(completed, kTotal);
  EXPECT_EQ(vc->requests_completed(), static_cast<u64>(kTotal));
  EXPECT_EQ(vc->requests_failed(), 0u);
}

TEST_F(StressFixture, SteadyStateIoMakesZeroPoolAllocations) {
  // The router's pools (routing slabs, cid tables, free lists, batch
  // scratch) grow only during warmup; once the working set exists, ten
  // thousand more I/Os must not trigger a single pool growth event.
  // Under NVMETRO_ZERO_ALLOC_STRICT=1 (set by ctest for this binary) a
  // violation aborts instead of merely failing the EXPECT below.
  Build(nullptr, 4);
  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  int completed = 0, issued = 0, target = 0;
  std::function<void(u32)> issue = [&](u32 q) {
    if (issued >= target) return;
    issued++;
    nvme::Sqe sqe = (issued % 2) ? nvme::MakeWrite(1, issued % 500, 1, buf, 0)
                                 : nvme::MakeRead(1, issued % 500, 1, buf, 0);
    driver->Submit(q, sqe, [&, q](NvmeStatus st, u32) {
      EXPECT_EQ(st, nvme::kStatusSuccess);
      completed++;
      issue(q);
    });
  };
  // Warmup: every shard reaches its steady working set (depth 16 per
  // queue bounds live slots and cids per shard).
  target = 2'000;
  for (u32 q = 0; q < 4; q++) {
    for (int d = 0; d < 16; d++) issue(q);
  }
  sim.Run();
  ASSERT_EQ(completed, 2'000);
  EXPECT_GT(mem::HotPathAllocs::count(), 0u) << "warmup grew no pool?";

  // Steady state: the same traffic shape, zero growth allowed.
  mem::HotPathAllocs::BeginSteadyState();
  target = 12'000;
  for (u32 q = 0; q < 4; q++) {
    for (int d = 0; d < 16; d++) issue(q);
  }
  sim.Run();
  mem::HotPathAllocs::EndSteadyState();
  EXPECT_EQ(completed, 12'000);
  EXPECT_EQ(mem::HotPathAllocs::steady_state_allocs(), 0u)
      << "hot path allocated in steady state";
}

TEST_F(StressFixture, SustainedRandomTrafficPreservesData) {
  Build();
  mem::GuestMemory& gm = vm->memory();
  Rng rng(7);
  std::map<u64, std::vector<u8>> model;  // lba -> expected block
  int outstanding = 0;
  int ops = 0;

  std::function<void()> step = [&]() {
    if (ops >= 600) return;
    ops++;
    u64 lba = rng.NextBounded(64);
    if (model.count(lba) && rng.NextBool(0.5)) {
      // Verify a previous write through a fresh guest buffer.
      u64 buf = *gm.AllocPages(1);
      outstanding++;
      driver->Submit(0, nvme::MakeRead(1, lba, 1, buf, 0),
                     [&, lba, buf](NvmeStatus st, u32) {
                       ASSERT_EQ(st, nvme::kStatusSuccess);
                       std::vector<u8> out(512);
                       ASSERT_TRUE(gm.Read(buf, out.data(), 512).ok());
                       EXPECT_EQ(out, model[lba]) << "lba " << lba;
                       gm.FreePages(buf, 1);
                       outstanding--;
                       step();
                     });
    } else {
      std::vector<u8> data(512);
      rng.Fill(data.data(), data.size());
      u64 buf = *gm.AllocPages(1);
      ASSERT_TRUE(gm.Write(buf, data.data(), 512).ok());
      model[lba] = data;
      outstanding++;
      driver->Submit(0, nvme::MakeWrite(1, lba, 1, buf, 0),
                     [&, buf](NvmeStatus st, u32) {
                       ASSERT_EQ(st, nvme::kStatusSuccess);
                       gm.FreePages(buf, 1);
                       outstanding--;
                       step();
                     });
    }
  };
  // Writes must be ordered per LBA for the model to hold: issue serially.
  step();
  sim.Run();
  EXPECT_EQ(ops, 600);
  EXPECT_EQ(outstanding, 0);
}

TEST_F(StressFixture, NotifyChannelOverflowFailsRequestsGracefully) {
  // Classifier sends everything to the UIF, but the channel is tiny and
  // nobody drains it: the router must fail the overflow instead of
  // wedging.
  const char* kAllToUif =
      "  mov r0, 0x240000\n"  // SEND_NQ | WILL_COMPLETE_NQ
      "  exit\n";
  Build(kAllToUif);
  core::NotifyChannel tiny(4);
  vc->AttachUif(&tiny);

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  int ok = 0, failed = 0;
  for (int i = 0; i < 16; i++) {
    driver->Submit(0, nvme::MakeWrite(1, i, 1, buf, 0),
                   [&](NvmeStatus st, u32) {
                     if (nvme::StatusOk(st)) {
                       ok++;
                     } else {
                       failed++;
                     }
                   });
  }
  sim.Run();
  // 3 entries fit (ring keeps one slot free); the rest fail fast.
  EXPECT_EQ(failed, 13);
  EXPECT_EQ(vc->requests_failed(), 13u);
  // Nobody drains the tiny channel, so the 3 accepted requests are stuck
  // — exactly what the open-span leak detector exists to expose.
  expect_drained = false;
  EXPECT_EQ(obs.trace().open_requests(), 3u);
  EXPECT_EQ(obs.metrics().CounterValue("router.notify.sends"), 16u);
  EXPECT_EQ(obs.metrics().CounterValue("router.notify.aborts"), 13u);
}

TEST_F(StressFixture, MissingUifFailsNotifyRequests) {
  const char* kAllToUif =
      "  mov r0, 0x240000\n"
      "  exit\n";
  Build(kAllToUif);  // no AttachUif at all
  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  NvmeStatus status = 0;
  driver->Submit(0, nvme::MakeWrite(1, 0, 1, buf, 0),
                 [&](NvmeStatus st, u32) { status = st; });
  sim.Run();
  EXPECT_EQ(status,
            nvme::MakeStatus(nvme::kSctGeneric, nvme::kScInternalError));
}

TEST_F(StressFixture, UifDetachFailsSubsequentRequests) {
  Build(functions::EncryptorClassifierAsm());
  core::NotifyChannel channel;
  uif::UifHost uif_host(&sim, "enc");
  auto enc_dev = std::make_unique<kblock::NvmeBlockDevice>(&sim, phys.get(),
                                                           &dma, 1);
  auto enc = functions::EncryptorUif::Create(
      enc_dev.get(), std::vector<u8>(64, 1).data(), 64);
  ASSERT_TRUE(enc.ok());
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), enc->get());
  uif_host.Start();

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  NvmeStatus status = 0xFFF;
  driver->Submit(0, nvme::MakeWrite(1, 0, 1, buf, 0),
                 [&](NvmeStatus st, u32) { status = st; });
  sim.Run();
  EXPECT_EQ(status, nvme::kStatusSuccess);

  // Live function removal (paper §III-B): new writes fail cleanly, reads
  // still flow to the device.
  vc->DetachUif();
  driver->Submit(0, nvme::MakeWrite(1, 1, 1, buf, 0),
                 [&](NvmeStatus st, u32) { status = st; });
  sim.Run();
  EXPECT_EQ(status,
            nvme::MakeStatus(nvme::kSctGeneric, nvme::kScInternalError));
}

TEST_F(StressFixture, UifDetachMidFlightFailsInflightRequests) {
  // Regression: detaching the UIF while notify-path requests are in
  // flight used to strand them — the routing slot leaked and the guest
  // never saw a CQE. A detach must now drain every in-flight notify leg
  // with Abort Requested.
  const char* kAllToUif =
      "  mov r0, 0x240000\n"  // SEND_NQ | WILL_COMPLETE_NQ
      "  exit\n";
  Build(kAllToUif);
  core::NotifyChannel channel;
  uif::UifHost uif_host(&sim, "slow");
  struct SlowUif : uif::UifBase {
    bool work(const nvme::Sqe&, u32 tag, u16& status) override {
      function()->host()->Async(200 * kUs, [fn = function(), tag] {
        fn->Respond(tag, nvme::kStatusSuccess);
      });
      (void)status;
      return true;
    }
  } slow;
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &slow);
  uif_host.Start();

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  int done = 0, aborted = 0;
  for (int i = 0; i < 8; i++) {
    driver->Submit(0, nvme::MakeWrite(1, i, 1, buf, 0),
                   [&](NvmeStatus st, u32) {
                     done++;
                     if (st == nvme::MakeStatus(nvme::kSctGeneric,
                                                nvme::kScAbortRequested)) {
                       aborted++;
                     }
                   });
  }
  // Detach while every request sits between NSQ push and the (slow) UIF
  // response.
  sim.ScheduleAfter(50 * kUs, [&] {
    EXPECT_EQ(obs.trace().open_requests(), 8u) << "test raced its setup";
    vc->DetachUif();
  });
  sim.Run();
  EXPECT_EQ(done, 8) << "a detached notify request hung";
  EXPECT_EQ(aborted, 8);
  EXPECT_EQ(vc->requests_failed(), 8u);
  // Every leg was settled as an administrative abort, and the late UIF
  // responses (the Async timers still fire) fell on the stale-tag guard.
  EXPECT_EQ(obs.metrics().CounterValue("router.notify.sends"), 8u);
  EXPECT_EQ(obs.metrics().CounterValue("router.notify.aborts"), 8u);
  EXPECT_EQ(obs.metrics().CounterValue("router.notify.completions"), 0u);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

// --- Classifier hot-swap under load ------------------------------------------------
//
// InstallClassifier mid-flight (paper §III-B live function replacement):
// requests already dispatched keep their recorded routing state and
// complete through their old paths; requests arriving after the swap run
// only the new program. Pinned by golden traces on all three paths.

/// New program after each swap: complete everything inline with success.
constexpr const char* kInlineComplete =
    "  mov r0, 0x10000\n"  // COMPLETE | status 0
    "  exit\n";
constexpr const char* kNewGolden =
    "VSQ_POP > CLASSIFIER(VSQ) > VCQ_POST > IRQ_INJECT";

TEST_F(StressFixture, HotSwapPreservesFastPathInflight) {
  Build();  // passthrough: SEND_HQ | WILL_COMPLETE_HQ
  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  int done = 0;
  for (int i = 0; i < 4; i++) {
    driver->Submit(0, nvme::MakeRead(1, i * 8, 8, buf, 0),
                   [&](NvmeStatus st, u32) {
                     EXPECT_EQ(st, nvme::kStatusSuccess);
                     done++;
                   });
  }
  sim.ScheduleAfter(20 * kUs, [&] {
    EXPECT_EQ(obs.trace().open_requests(), 4u) << "test raced its setup";
    ASSERT_TRUE(
        vc->InstallClassifier(*ebpf::Assemble(kInlineComplete)).ok());
    for (int i = 0; i < 2; i++) {
      driver->Submit(0, nvme::MakeRead(1, i * 8, 8, buf, 0),
                     [&](NvmeStatus st, u32) {
                       EXPECT_EQ(st, nvme::kStatusSuccess);
                       done++;
                     });
    }
  });
  sim.Run();
  EXPECT_EQ(done, 6);
  const obs::TraceRecorder& tr = obs.trace();
  for (u64 id = 1; id <= 4; id++) {
    EXPECT_EQ(tr.PathString(id),
              "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > HCQ_COMPLETE > "
              "VCQ_POST > IRQ_INJECT")
        << "pre-swap req " << id << " lost its routing state";
  }
  for (u64 id = 5; id <= 6; id++) {
    EXPECT_EQ(tr.PathString(id), kNewGolden)
        << "post-swap req " << id << " did not run the new program";
  }
  EXPECT_EQ(obs.metrics().CounterValue("router.fast.sends"), 4u);
}

TEST_F(StressFixture, HotSwapPreservesNotifyPathInflight) {
  const char* kAllToUif =
      "  mov r0, 0x240000\n"
      "  exit\n";
  Build(kAllToUif);
  core::NotifyChannel channel;
  uif::UifHostParams uif_params;
  uif_params.obs = &obs;  // UIF_WORK / UIF_RESPOND spans in the golden
  uif::UifHost uif_host(&sim, "slow", uif_params);
  struct SlowUif : uif::UifBase {
    bool work(const nvme::Sqe&, u32 tag, u16& status) override {
      calls++;
      function()->host()->Async(200 * kUs, [fn = function(), tag] {
        fn->Respond(tag, nvme::kStatusSuccess);
      });
      (void)status;
      return true;
    }
    int calls = 0;
  } slow;
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &slow);
  uif_host.Start();

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  SimTime old_done = 0, new_done = 0;
  int done = 0;
  for (int i = 0; i < 4; i++) {
    driver->Submit(0, nvme::MakeWrite(1, i, 1, buf, 0),
                   [&](NvmeStatus st, u32) {
                     EXPECT_EQ(st, nvme::kStatusSuccess);
                     done++;
                     old_done = sim.now();
                   });
  }
  sim.ScheduleAfter(50 * kUs, [&] {
    EXPECT_EQ(obs.trace().open_requests(), 4u) << "test raced its setup";
    ASSERT_TRUE(
        vc->InstallClassifier(*ebpf::Assemble(kInlineComplete)).ok());
    for (int i = 0; i < 2; i++) {
      driver->Submit(0, nvme::MakeWrite(1, 8 + i, 1, buf, 0),
                     [&](NvmeStatus st, u32) {
                       EXPECT_EQ(st, nvme::kStatusSuccess);
                       done++;
                       new_done = sim.now();
                     });
    }
  });
  sim.Run();
  EXPECT_EQ(done, 6);
  // New requests never reached the UIF and finished before the slow old
  // legs — the new program took effect immediately.
  EXPECT_EQ(slow.calls, 4);
  EXPECT_LT(new_done, old_done);
  const obs::TraceRecorder& tr = obs.trace();
  for (u64 id = 1; id <= 4; id++) {
    EXPECT_EQ(tr.PathString(id),
              "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_NOTIFY > UIF_WORK > "
              "UIF_RESPOND > NCQ_COMPLETE > VCQ_POST > IRQ_INJECT")
        << "pre-swap req " << id << " lost its notify routing state";
  }
  for (u64 id = 5; id <= 6; id++) {
    EXPECT_EQ(tr.PathString(id), kNewGolden) << "post-swap req " << id;
  }
}

TEST_F(StressFixture, HotSwapPreservesKernelPathInflight) {
  const char* kAllToKernel =
      "  mov r0, 0x480000\n"  // SEND_KQ | WILL_COMPLETE_KQ
      "  exit\n";
  Build(kAllToKernel);
  auto kdev = std::make_unique<kblock::NvmeBlockDevice>(&sim, phys.get(),
                                                        &dma, 1);
  vc->AttachKernelDevice(kdev.get());

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  int done = 0;
  for (int i = 0; i < 4; i++) {
    driver->Submit(0, nvme::MakeRead(1, i * 8, 8, buf, 0),
                   [&](NvmeStatus st, u32) {
                     EXPECT_EQ(st, nvme::kStatusSuccess);
                     done++;
                   });
  }
  sim.ScheduleAfter(10 * kUs, [&] {
    EXPECT_EQ(obs.trace().open_requests(), 4u) << "test raced its setup";
    ASSERT_TRUE(
        vc->InstallClassifier(*ebpf::Assemble(kInlineComplete)).ok());
    for (int i = 0; i < 2; i++) {
      driver->Submit(0, nvme::MakeRead(1, i * 8, 8, buf, 0),
                     [&](NvmeStatus st, u32) {
                       EXPECT_EQ(st, nvme::kStatusSuccess);
                       done++;
                     });
    }
  });
  sim.Run();
  EXPECT_EQ(done, 6);
  const obs::TraceRecorder& tr = obs.trace();
  for (u64 id = 1; id <= 4; id++) {
    EXPECT_EQ(tr.PathString(id),
              "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_KERNEL > KBIO_DONE > "
              "KCQ_COMPLETE > VCQ_POST > IRQ_INJECT")
        << "pre-swap req " << id << " lost its kernel routing state";
  }
  for (u64 id = 5; id <= 6; id++) {
    EXPECT_EQ(tr.PathString(id), kNewGolden) << "post-swap req " << id;
  }
  EXPECT_EQ(obs.metrics().CounterValue("router.kernel.sends"), 4u);
}

TEST_F(StressFixture, RoutingTableExhaustionRecovers) {
  // A classifier that never completes anything (sends to the device with
  // WAIT_FOR_HOOK and installs no completion) would leak entries; instead
  // we exhaust the table legitimately with a huge flood and verify the
  // router keeps serving after it drains.
  Build();
  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  int done = 0, busy = 0;
  // Push far more than the 256-entry guest ring in one burst. The guest
  // driver reports ring-full as AbortRequested; everything accepted must
  // complete.
  for (int i = 0; i < 1'000; i++) {
    driver->Submit(0, nvme::MakeRead(1, i % 100, 1, buf, 0),
                   [&](NvmeStatus st, u32) {
                     if (nvme::StatusOk(st)) {
                       done++;
                     } else {
                       busy++;
                     }
                   });
  }
  sim.Run();
  EXPECT_EQ(done + busy, 1'000);
  EXPECT_GT(done, 200);
  // The router is still healthy afterwards.
  NvmeStatus status = 0xFFF;
  driver->Submit(0, nvme::MakeRead(1, 0, 1, buf, 0),
                 [&](NvmeStatus st, u32) { status = st; });
  sim.Run();
  EXPECT_EQ(status, nvme::kStatusSuccess);
}

TEST_F(StressFixture, MultiTargetFanoutUnderLoad) {
  // Replication-style fan-out for hundreds of writes with a slow UIF leg.
  Build(functions::ReplicatorClassifierAsm());
  core::NotifyChannel channel;
  uif::UifHost uif_host(&sim, "repl");
  // A do-nothing-slow UIF: respond after consuming the request.
  struct SlowUif : uif::UifBase {
    bool work(const nvme::Sqe&, u32 tag, u16& status) override {
      calls++;
      function()->host()->Async(200 * kUs, [fn = function(), tag] {
        fn->Respond(tag, nvme::kStatusSuccess);
      });
      (void)status;
      return true;
    }
    int calls = 0;
  } slow;
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &slow);
  uif_host.Start();

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  int done = 0;
  SimTime first_done = 0;
  for (int i = 0; i < 100; i++) {
    driver->Submit(0, nvme::MakeWrite(1, i, 1, buf, 0),
                   [&](NvmeStatus st, u32) {
                     EXPECT_EQ(st, nvme::kStatusSuccess);
                     if (done++ == 0) first_done = sim.now();
                   });
  }
  sim.Run();
  EXPECT_EQ(done, 100);
  EXPECT_EQ(slow.calls, 100);
  // Completion required BOTH legs: nothing finished before the slow leg.
  EXPECT_GE(first_done, 200 * kUs);
  EXPECT_EQ(vc->fast_path_sends(), 100u);
  EXPECT_EQ(vc->notify_path_sends(), 100u);
}

TEST_F(StressFixture, DeviceErrorsUnderEncryptionLoad) {
  Build(functions::EncryptorClassifierAsm());
  core::NotifyChannel channel;
  uif::UifHost uif_host(&sim, "enc");
  auto enc_dev = std::make_unique<kblock::NvmeBlockDevice>(&sim, phys.get(),
                                                           &dma, 1);
  std::vector<u8> key(64, 9);
  auto enc =
      functions::EncryptorUif::Create(enc_dev.get(), key.data(), key.size());
  ASSERT_TRUE(enc.ok());
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), enc->get());
  uif_host.Start();

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  // Seed some data.
  for (int i = 0; i < 8; i++) {
    NvmeStatus st = 0xFFF;
    driver->Submit(0, nvme::MakeWrite(1, i, 1, buf, 0),
                   [&](NvmeStatus s, u32) { st = s; });
    sim.Run();
    ASSERT_EQ(st, nvme::kStatusSuccess);
  }
  // Every 3rd read fails at the device; the classifier's HOOK_HCQ error
  // branch must forward each failure and the rest must decrypt fine.
  int ok = 0, failed = 0;
  for (int i = 0; i < 30; i++) {
    if (i % 3 == 0) {
      phys->InjectError(1,
                        nvme::MakeStatus(nvme::kSctMediaError,
                                         nvme::kScUnrecoveredRead),
                        1);
    }
    NvmeStatus st = 0xFFF;
    driver->Submit(0, nvme::MakeRead(1, i % 8, 1, buf, 0),
                   [&](NvmeStatus s, u32) { st = s; });
    sim.Run();
    if (nvme::StatusOk(st)) {
      ok++;
    } else {
      EXPECT_EQ(st, nvme::MakeStatus(nvme::kSctMediaError,
                                     nvme::kScUnrecoveredRead));
      failed++;
    }
  }
  EXPECT_EQ(failed, 10);
  EXPECT_EQ(ok, 20);
}

// --- Heterogeneous functions on one router -----------------------------------------

TEST(HeterogeneousFunctions, ThreeVmsThreeFunctionsOneRouterOneUifProcess) {
  // The full §III composition in one host: three VMs with three different
  // storage functions (encryption, replication, QoS rate limiting) share
  // one router worker, and the two UIF-backed functions share one UIF
  // process (§III-D multi-VM hosting). Each function's semantics must
  // hold with all three running concurrently.
  obs::Observability obs;
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig cfg;
  cfg.capacity = 192 * MiB;
  cfg.obs = &obs;
  ssd::SimulatedController phys(&sim, &dma, cfg);
  NvmetroHost::Config hcfg;
  hcfg.obs = &obs;
  NvmetroHost host(&sim, &phys, hcfg);  // one shared router worker

  const u64 kPartNlb = 64 * 1024;  // 32 MiB per VM at 512B LBAs
  auto make_vm = [&](const char* name) {
    return std::make_unique<virt::Vm>(
        &sim, virt::VmConfig{.name = name, .memory_bytes = 32 * MiB,
                             .vcpus = 1});
  };
  auto vm_enc = make_vm("enc");
  auto vm_rep = make_vm("rep");
  auto vm_qos = make_vm("qos");
  auto* vc_enc = host.CreateController(
      vm_enc.get(), {.vm_id = 1, .part_first_lba = 0, .part_nlb = kPartNlb});
  auto* vc_rep = host.CreateController(
      vm_rep.get(),
      {.vm_id = 2, .part_first_lba = kPartNlb, .part_nlb = kPartNlb});
  auto* vc_qos = host.CreateController(
      vm_qos.get(),
      {.vm_id = 3, .part_first_lba = 2 * kPartNlb, .part_nlb = kPartNlb});
  ASSERT_TRUE(
      vc_enc->InstallClassifier(*functions::EncryptorClassifier()).ok());
  ASSERT_TRUE(
      vc_rep->InstallClassifier(*functions::ReplicatorClassifier()).ok());
  auto qos_map = functions::MakeQosMap(/*rate=*/1'000, /*burst=*/4);
  ASSERT_TRUE(
      vc_qos->InstallClassifier(*functions::RateLimitClassifier(qos_map))
          .ok());

  // One UIF process hosts both the encryptor and the replicator.
  uif::UifHostParams uif_params;
  uif_params.obs = &obs;
  uif::UifHost uif_host(&sim, "multi-fn", uif_params);
  NotifyChannel ch_enc, ch_rep;
  vc_enc->AttachUif(&ch_enc);
  vc_rep->AttachUif(&ch_rep);
  auto enc_dev =
      std::make_unique<kblock::NvmeBlockDevice>(&sim, &phys, &dma, 1);
  std::vector<u8> key(64, 0x2A);
  auto enc =
      functions::EncryptorUif::Create(enc_dev.get(), key.data(), key.size());
  ASSERT_TRUE(enc.ok());
  kblock::RamBlockDevice secondary(&sim, 32 * MiB);
  functions::ReplicatorUif repl(&secondary);
  uif_host.AddFunction(&ch_enc, vm_enc.get(), enc->get());
  uif_host.AddFunction(&ch_rep, vm_rep.get(), &repl);
  host.Start();
  uif_host.Start();

  virt::GuestNvmeDriver drv_enc(vm_enc.get(), vc_enc);
  virt::GuestNvmeDriver drv_rep(vm_rep.get(), vc_rep);
  virt::GuestNvmeDriver drv_qos(vm_qos.get(), vc_qos);
  ASSERT_TRUE(drv_enc.Init(1).ok());
  ASSERT_TRUE(drv_rep.Init(1).ok());
  ASSERT_TRUE(drv_qos.Init(1).ok());

  Rng rng(77);
  std::vector<u8> enc_data(4096), rep_data(4096);
  rng.Fill(enc_data.data(), enc_data.size());
  rng.Fill(rep_data.data(), rep_data.size());

  mem::GuestMemory& gm_enc = vm_enc->memory();
  mem::GuestMemory& gm_rep = vm_rep->memory();
  mem::GuestMemory& gm_qos = vm_qos->memory();
  u64 buf_enc = *gm_enc.AllocPages(1);
  u64 buf_rep = *gm_rep.AllocPages(1);
  u64 buf_qos = *gm_qos.AllocPages(1);
  ASSERT_TRUE(gm_enc.Write(buf_enc, enc_data.data(), enc_data.size()).ok());
  ASSERT_TRUE(gm_rep.Write(buf_rep, rep_data.data(), rep_data.size()).ok());

  // Fire everything before running the clock so all three VMs interleave
  // on the shared worker: one encrypted write, one replicated write, and
  // a QoS burst of 12 (bucket of 4).
  NvmeStatus st_enc = 0xFFF, st_rep = 0xFFF;
  drv_enc.Submit(0, nvme::MakeWrite(1, 8, 8, buf_enc, 0),
                 [&](NvmeStatus st, u32) { st_enc = st; });
  drv_rep.Submit(0, nvme::MakeWrite(1, 16, 8, buf_rep, 0),
                 [&](NvmeStatus st, u32) { st_rep = st; });
  int qos_ok = 0, qos_throttled = 0;
  for (int i = 0; i < 12; i++) {
    drv_qos.Submit(0, nvme::MakeRead(1, i, 1, buf_qos, 0),
                   [&](NvmeStatus st, u32) {
                     if (nvme::StatusOk(st)) {
                       qos_ok++;
                     } else {
                       qos_throttled++;
                     }
                   });
  }
  sim.Run();

  // Encryption semantics: success, plaintext nowhere on the media, exact
  // aes-xts-plain64 ciphertext at the translated location (partition 0).
  EXPECT_EQ(st_enc, nvme::kStatusSuccess);
  EXPECT_FALSE(phys.store().Matches(8 * 512, enc_data.data(),
                                    enc_data.size()));
  auto xts = crypto::XtsCipher::Create(key.data(), key.size());
  ASSERT_TRUE(xts.ok());
  std::vector<u8> expect_ct(enc_data.size());
  xts->EncryptRange(8, 512, enc_data.data(), expect_ct.data(),
                    enc_data.size());
  EXPECT_TRUE(
      phys.store().Matches(8 * 512, expect_ct.data(), expect_ct.size()));

  // Replication semantics: plaintext on the primary at the *translated*
  // partition offset AND on the secondary at the guest-relative sector.
  EXPECT_EQ(st_rep, nvme::kStatusSuccess);
  EXPECT_TRUE(phys.store().Matches((kPartNlb + 16) * 512, rep_data.data(),
                                   rep_data.size()));
  EXPECT_TRUE(
      secondary.store().Matches(16 * 512, rep_data.data(), rep_data.size()));
  EXPECT_EQ(repl.writes_replicated(), 1u);

  // QoS semantics: the burst of 4 admitted, the rest throttled — and the
  // other VMs' traffic was not throttled by VM3's bucket.
  EXPECT_EQ(qos_ok + qos_throttled, 12);
  EXPECT_GE(qos_ok, 4);
  EXPECT_GE(qos_throttled, 6);

  // Round-trip reads through the full stacks still work afterwards.
  std::vector<u8> back(4096, 0);
  NvmeStatus st = 0xFFF;
  u64 out_enc = *gm_enc.AllocPages(1);
  drv_enc.Submit(0, nvme::MakeRead(1, 8, 8, out_enc, 0),
                 [&](NvmeStatus s, u32) { st = s; });
  sim.Run();
  ASSERT_EQ(st, nvme::kStatusSuccess);
  ASSERT_TRUE(gm_enc.Read(out_enc, back.data(), back.size()).ok());
  EXPECT_EQ(back, enc_data);  // decrypted back to plaintext

  // Observability invariants across the three concurrent stacks: every
  // request (including the throttled ones) reached one outcome, and no
  // trace span was left open anywhere.
  ExpectRouterBooksBalance(obs);
  EXPECT_EQ(obs.metrics().CounterValue("uif.requests"),
            obs.metrics().CounterValue("uif.responses"));
}

}  // namespace
}  // namespace nvmetro::core
