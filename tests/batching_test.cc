// Batching equivalence suite (DESIGN.md §10).
//
// Every poll dispatch drains a batch; max_batch == 1 makes each batch
// one command, whose simulated nanoseconds, counters and trace spans the
// golden traces in obs_test.cc and the figure goldens pin. These tests
// pin the rest:
//  - at QD1 every max_batch (0 reads as 1) gives size-1 batches whose
//    cost splits sum back to the parent figures — timing is identical;
//  - under queue depth, batches form, doorbells/interrupts coalesce, and
//    the per-path accounting invariant sends == completions + aborts +
//    timeouts holds, with and without injected faults.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/notify.h"
#include "ebpf/assembler.h"
#include "core/router.h"
#include "functions/classifiers.h"
#include "mem/address_space.h"
#include "obs/obs.h"
#include "router_books.h"
#include "ssd/controller.h"
#include "uif/framework.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

struct RunResult {
  SimTime end_time = 0;
  u64 router_busy_ns = 0;
  u64 total_cpu_ns = 0;
  int completed = 0;
  int failed = 0;
  /// Per-shard IRQ scratch capacities sampled right after queue setup
  /// and again after the run drains — the pre-reserve contract says they
  /// never move once the queues exist.
  std::vector<usize> irq_caps_setup, irq_caps_end;
};

struct RunConfig {
  RouterCosts costs{};
  int depth = 1;
  int total = 300;
  /// Guest I/O queues, each with its own submitting vCPU running `depth`
  /// outstanding commands. One guest queue cannot out-submit the router
  /// (guest per-command CPU exceeds the router's), so forming real
  /// batches requires several queues sharing the one router worker —
  /// the same shared-worker regime as the bench's batch sweep.
  u32 queues = 1;
  /// Inject this many media errors partway through the run.
  u32 inject_errors = 0;
  /// Replace the default drive with one fast enough that the router
  /// worker is the bottleneck — the regime where batching moves
  /// throughput, not just CPU (the default drive's 3.3us serial command
  /// overhead caps IOPS below what one router worker can push).
  bool fast_drive = false;
  obs::Observability* obs = nullptr;
};

/// Closed-loop passthrough stack, the RunStack pattern from obs_test.cc
/// parameterized by RouterCosts — the timing-equivalence harness.
RunResult RunBatchStack(const RunConfig& rc) {
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.obs = rc.obs;
  if (rc.fast_drive) {
    // Both serial stages of the drive — the firmware pipeline and the
    // per-command bus setup — must clear the router's per-request cost,
    // or they pin the completion time no matter what the router saves.
    cfg.latency.cmd_overhead_ns = 200;
    cfg.latency.bus_setup_ns = 100;
    cfg.latency.read_media_ns = 4000;
    cfg.latency.write_media_ns = 3000;
    cfg.latency.slow_op_rate = 0;
    cfg.latency.jitter = 0;
  }
  ssd::SimulatedController phys(&sim, &dma, cfg);
  virt::Vm vm(&sim, virt::VmConfig{.memory_bytes = 32 * MiB});
  NvmetroHost::Config hcfg;
  hcfg.costs = rc.costs;
  hcfg.obs = rc.obs;
  NvmetroHost host(&sim, &phys, hcfg);
  VirtualController* vc = host.CreateController(&vm, {.vm_id = 1});
  auto prog = functions::PassthroughClassifier();
  EXPECT_TRUE(prog.ok());
  EXPECT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
  host.Start();
  virt::GuestNvmeDriver driver(&vm, vc);
  EXPECT_TRUE(driver.Init(static_cast<u16>(rc.queues)).ok());

  if (rc.inject_errors) {
    phys.InjectError(
        1, nvme::MakeStatus(nvme::kSctMediaError, nvme::kScUnrecoveredRead),
        rc.inject_errors);
  }

  RunResult r;
  auto snap_caps = [&](std::vector<usize>* irq) {
    for (u32 s = 0; s < vc->num_shards(); s++) {
      irq->push_back(vc->shard_irq_scratch_capacity(s));
    }
  };
  snap_caps(&r.irq_caps_setup);
  u64 buf = *vm.memory().AllocPages(1);
  int issued = 0;
  std::function<void(u16)> issue = [&](u16 q) {
    if (issued >= rc.total) return;
    issued++;
    nvme::Sqe sqe = (issued % 3)
                        ? nvme::MakeRead(1, issued % 32, 1, buf, 0)
                        : nvme::MakeWrite(1, issued % 32, 1, buf, 0);
    driver.Submit(q, sqe, [&, q](NvmeStatus st, u32) {
      r.completed++;
      if (!nvme::StatusOk(st)) r.failed++;
      issue(q);
    });
  };
  for (u16 q = 0; q < rc.queues; q++) {
    for (int d = 0; d < rc.depth; d++) issue(q);
  }
  sim.Run();

  snap_caps(&r.irq_caps_end);
  r.end_time = sim.now();
  r.router_busy_ns = host.worker(0)->busy_ns();
  r.total_cpu_ns = sim.TotalCpuBusyNs();
  return r;
}

// --- QD1 equivalence ----------------------------------------------------------

TEST(BatchingEquivalenceTest, Qd1TimingBitIdenticalAcrossBatchSizes) {
  // At queue depth 1 every batch has exactly one command: the split costs
  // (setup + per-command remainder, doorbell part deferred to flush) must
  // sum back to the parent figures with not one nanosecond of drift.
  // max_batch = 0 is clamped to one command per dispatch.
  RunConfig base;
  RunResult unbatched = RunBatchStack(base);
  for (u32 mb : {0u, 4u, 32u}) {
    RunConfig rc;
    rc.costs.max_batch = mb;
    RunResult batched = RunBatchStack(rc);
    EXPECT_EQ(batched.end_time, unbatched.end_time) << "max_batch=" << mb;
    EXPECT_EQ(batched.router_busy_ns, unbatched.router_busy_ns)
        << "max_batch=" << mb;
    EXPECT_EQ(batched.total_cpu_ns, unbatched.total_cpu_ns)
        << "max_batch=" << mb;
    EXPECT_EQ(batched.completed, unbatched.completed);
  }
}

TEST(BatchingEquivalenceTest, Qd1GoldenTraceAndCountersUnchanged) {
  // Size-1 batches leave the span sequence untouched — no BATCH span, one
  // IRQ_INJECT per request — and every router counter matches the
  // unbatched run. (The full metrics export differs only by the
  // router.batch_size histogram, which exists only when batching is on.)
  obs::Observability obs_off, obs_on;
  RunConfig off;
  off.obs = &obs_off;
  RunBatchStack(off);
  RunConfig on;
  on.costs.max_batch = 32;
  on.obs = &obs_on;
  RunBatchStack(on);

  for (const char* name :
       {"router.requests", "router.completed", "router.failed",
        "router.classifier.runs", "router.fast.sends",
        "router.fast.completions", "router.irq.injects", "ssd.commands"}) {
    EXPECT_EQ(obs_on.metrics().CounterValue(name),
              obs_off.metrics().CounterValue(name))
        << name;
  }
  EXPECT_EQ(obs_on.trace().total_recorded(),
            obs_off.trace().total_recorded());
  EXPECT_EQ(obs_on.trace().open_requests(), 0u);
  EXPECT_EQ(obs_on.trace().PathString(1),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > HCQ_COMPLETE > "
            "VCQ_POST > IRQ_INJECT");
  // Every batch recorded size 1.
  const LatencyHistogram* bs =
      obs_on.metrics().FindHistogram("router.batch_size");
  ASSERT_NE(bs, nullptr);
  EXPECT_EQ(bs->max(), 1u);
  // ...and the histogram is not even registered when batching is off.
  EXPECT_EQ(obs_off.metrics().FindHistogram("router.batch_size"), nullptr);
}

// --- Queue-depth behavior -----------------------------------------------------

TEST(BatchingEquivalenceTest, Qd8FormsBatchesAndKeepsBalance) {
  obs::Observability obs;
  RunConfig rc;
  rc.costs.max_batch = 32;
  rc.depth = 8;
  rc.total = 500;
  rc.obs = &obs;
  RunResult r = RunBatchStack(rc);
  EXPECT_EQ(r.completed, 500);
  EXPECT_EQ(r.failed, 0);
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.requests"), 500u);
  EXPECT_EQ(m.CounterValue("router.completed"), 500u);
  ExpectRouterBooksBalance(obs);
  // The initial 8-deep burst alone guarantees a real batch formed.
  const LatencyHistogram* bs = m.FindHistogram("router.batch_size");
  ASSERT_NE(bs, nullptr);
  EXPECT_GT(bs->max(), 1u);
  // Batched requests carry the BATCH span (aux = batch size), so more
  // than the unbatched 6 spans per request were recorded in total.
  EXPECT_GT(obs.trace().total_recorded(), 500u * 6);
  // Larger batches mean fewer interrupts than guest-visible completions.
  EXPECT_LT(m.CounterValue("router.irq.injects"),
            m.CounterValue("router.completed"));
}

TEST(BatchingEquivalenceTest, Qd8BatchingNeverSlowerOnSlowDrive) {
  // On the default drive the SSD's serial command overhead is the
  // bottleneck: batching saves router work (fewer interrupts, amortized
  // setup) but must not move completion time at all. Note router busy_ns
  // is wall time here — a busy-polling worker burns 100% CPU regardless
  // of how much work each dispatch does.
  RunConfig off;
  off.depth = 8;
  off.total = 500;
  RunResult unbatched = RunBatchStack(off);
  RunConfig on = off;
  on.costs.max_batch = 32;
  RunResult batched = RunBatchStack(on);
  EXPECT_EQ(batched.completed, unbatched.completed);
  EXPECT_LE(batched.end_time, unbatched.end_time);
}

TEST(BatchingEquivalenceTest, Qd8BatchingFasterWhenRouterBound) {
  // With a fast drive and four guest queues sharing the one router
  // worker, the router is the bottleneck: the amortized per-batch costs
  // translate directly into throughput, and the batched run must finish
  // the same closed-loop workload in measurably less simulated time.
  RunConfig off;
  off.depth = 8;
  off.total = 500;
  off.queues = 4;
  off.fast_drive = true;
  RunResult unbatched = RunBatchStack(off);
  RunConfig on = off;
  on.costs.max_batch = 32;
  RunResult batched = RunBatchStack(on);
  EXPECT_EQ(batched.completed, unbatched.completed);
  EXPECT_LT(batched.end_time, unbatched.end_time);
  // At least 10% faster end-to-end (the bench's QD32 sweep shows more).
  EXPECT_LT(static_cast<double>(batched.end_time),
            0.9 * static_cast<double>(unbatched.end_time));
}

TEST(BatchingEquivalenceTest, ScratchCapacityStableUnderDeepBatches) {
  // The IRQ scratch vector is reserved once at queue setup (to the
  // virtual CQ depth, which bounds any batch) and must never reallocate
  // afterwards — the zero-alloc steady-state contract. Drive the worst
  // case: four queues and deep batches, on a drive fast enough that real
  // batches form, with recording on so every completion lands a req id
  // in the scratch.
  obs::Observability obs;
  RunConfig rc;
  rc.costs.max_batch = 32;
  rc.depth = 8;
  rc.total = 500;
  rc.queues = 4;
  rc.fast_drive = true;
  rc.obs = &obs;
  RunResult r = RunBatchStack(rc);
  EXPECT_EQ(r.completed, 500);
  const LatencyHistogram* bs =
      obs.metrics().FindHistogram("router.batch_size");
  ASSERT_NE(bs, nullptr);
  EXPECT_GT(bs->max(), 1u);

  ASSERT_EQ(r.irq_caps_setup.size(), 4u);
  ASSERT_EQ(r.irq_caps_end.size(), 4u);
  for (u32 s = 0; s < 4; s++) {
    // Reserved at setup to at least a full batch...
    EXPECT_GE(r.irq_caps_setup[s], rc.costs.max_batch) << "shard " << s;
    // ...and not one byte of growth after 500 batched completions.
    EXPECT_EQ(r.irq_caps_end[s], r.irq_caps_setup[s]) << "shard " << s;
  }
}

TEST(BatchingEquivalenceTest, InjectedErrorsKeepBalanceUnderBatching) {
  obs::Observability obs;
  RunConfig rc;
  rc.costs.max_batch = 16;
  rc.depth = 8;
  rc.total = 300;
  rc.inject_errors = 25;
  rc.obs = &obs;
  RunResult r = RunBatchStack(rc);
  EXPECT_EQ(r.completed, 300);  // errors still complete to the guest
  EXPECT_EQ(r.failed, 25);
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.fast.errors"), 25u);
  ExpectRouterBooksBalance(obs);
}

// --- Notify path under batching -----------------------------------------------

struct EchoUif : uif::UifBase {
  bool work(const nvme::Sqe&, u32, u16& status) override {
    status = nvme::kStatusSuccess;
    return false;
  }
};

TEST(BatchingEquivalenceTest, NotifyPathBatchedKickAndUifHarvest) {
  // Route everything through the UIF: the router's NSQ pushes are kicked
  // once per batch (NotifyChannel::EndBatch) and the UIF framework
  // harvests up to its own max_batch per dispatch; accounting must
  // balance end to end.
  const char* kAllToUif =
      "  mov r0, 0x240000\n"  // SEND_NQ | WILL_COMPLETE_NQ
      "  exit\n";
  obs::Observability obs;
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.obs = &obs;
  ssd::SimulatedController phys(&sim, &dma, cfg);
  virt::Vm vm(&sim, virt::VmConfig{.memory_bytes = 32 * MiB});
  NvmetroHost::Config hcfg;
  hcfg.costs.max_batch = 16;
  hcfg.obs = &obs;
  NvmetroHost host(&sim, &phys, hcfg);
  VirtualController* vc = host.CreateController(&vm, {.vm_id = 1});
  auto prog = ebpf::Assemble(kAllToUif);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
  NotifyChannel channel;
  uif::UifHostParams params;
  params.max_batch = 16;
  params.obs = &obs;
  uif::UifHost uif_host(&sim, "echo", params);
  EchoUif echo;
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, &vm, &echo);
  host.Start();
  uif_host.Start();
  virt::GuestNvmeDriver driver(&vm, vc);
  ASSERT_TRUE(driver.Init(1).ok());

  u64 buf = *vm.memory().AllocPages(1);
  int completed = 0, issued = 0;
  const int kTotal = 300;
  std::function<void()> issue = [&] {
    if (issued >= kTotal) return;
    issued++;
    driver.Submit(0, nvme::MakeWrite(1, issued % 16, 1, buf, 0),
                  [&](NvmeStatus st, u32) {
                    EXPECT_EQ(st, nvme::kStatusSuccess);
                    completed++;
                    issue();
                  });
  };
  for (int d = 0; d < 8; d++) issue();
  sim.Run();
  EXPECT_EQ(completed, kTotal);
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.notify.sends"), 300u);
  EXPECT_EQ(m.CounterValue("router.notify.completions"), 300u);
  EXPECT_EQ(m.CounterValue("uif.requests"), 300u);
  EXPECT_EQ(m.CounterValue("uif.responses"), 300u);
  ExpectRouterBooksBalance(obs);
}

// --- NotifyChannel batch-kick unit --------------------------------------------

TEST(NotifyChannelBatchTest, EndBatchFiresSingleDeferredKick) {
  NotifyChannel ch;
  int kicks = 0;
  ch.SetRequestNotify([&] { kicks++; });
  NotifyEntry e;
  e.sqe = nvme::MakeFlush(1);

  ch.PushRequest(e);
  EXPECT_EQ(kicks, 1);  // unbatched: one kick per push

  ch.BeginBatch();
  ch.PushRequest(e);
  ch.PushRequest(e);
  ch.PushRequest(e);
  EXPECT_EQ(kicks, 1);          // deferred while batching
  EXPECT_TRUE(ch.EndBatch());   // one kick for the three pushes
  EXPECT_EQ(kicks, 2);
  EXPECT_FALSE(ch.EndBatch());  // nothing pending: no spurious kick
  EXPECT_EQ(kicks, 2);

  ch.BeginBatch();
  EXPECT_FALSE(ch.EndBatch());  // empty batch: no kick
  EXPECT_EQ(kicks, 2);
  EXPECT_EQ(ch.PendingRequests(), 4u);
}

}  // namespace
}  // namespace nvmetro::core
