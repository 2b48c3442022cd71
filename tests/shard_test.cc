// Per-queue shard suite (DESIGN.md §14): every guest queue owns its
// routing slab, cid table and scratch; cross-shard traffic exists only
// for replication fan-out. These tests pin two properties:
//  - a replication fan-out with one replica leg faulted drains, resyncs
//    and leaves BOTH shards' slabs and cid tables empty;
//  - ten thousand QoS sheds plus deadline aborts leak nothing: slab and
//    cid occupancy return to zero and pool capacity stays bounded;
//  - a closed-loop run ends at a pinned simulated time at 1, 2 and 4
//    queues, and its steady phase grows no pool.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "core/router.h"
#include "fault/fault.h"
#include "functions/classifiers.h"
#include "mem/address_space.h"
#include "mem/arena.h"
#include "obs/obs.h"
#include "qos/qos.h"
#include "router_books.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

constexpr NvmeStatus kShedStatus =
    nvme::MakeStatus(nvme::kSctGeneric, nvme::kScNamespaceNotReady);

// --- Replication fan-out with a faulted leg -----------------------------------

TEST(ShardFaultTest, FaultedReplicaLegDrainsAndEmptiesBothShards) {
  // Writes fan out from two guest queues (two shards) to the fast path
  // plus the replicator UIF. The replica link dies mid-run: every write
  // must still reach a guest outcome, resync must clean the mirror, and
  // — the shard contract — both shards' slabs and cid tables must end
  // empty, with no entry stranded by the faulted leg.
  using namespace nvmetro::baselines;
  obs::Observability obs;
  ssd::ControllerConfig drive = Testbed::DefaultDrive();
  drive.obs = &obs;
  auto tb = std::make_unique<Testbed>(drive);
  auto injector = std::make_unique<fault::FaultInjector>(&tb->sim, &obs);
  SolutionParams params;
  params.obs = &obs;
  params.fault = injector.get();
  auto bundle =
      SolutionBundle::Create(tb.get(), SolutionKind::kNvmetroReplication,
                             params);
  ASSERT_NE(bundle, nullptr);

  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kLinkDown,
                         .at_ns = 200 * kUs,
                         .duration_ns = 2 * kMs});
  injector->Arm(plan);

  StorageSolution* sol = bundle->vm_solution(0);
  functions::ReplicatorUif* repl = bundle->replicator(0);
  ASSERT_NE(repl, nullptr);

  const int kWrites = 24;
  const u64 bs = 4096;
  std::vector<std::vector<u8>> pats(kWrites);
  Rng rng(99);
  int ok = 0;
  for (int i = 0; i < kWrites; i++) {
    pats[i].resize(bs);
    rng.Fill(pats[i].data(), bs);
    // Alternate the two shards; spread across the outage window.
    tb->sim.ScheduleAfter(static_cast<SimTime>(i) * 100 * kUs, [&, i] {
      sol->Submit(i % 2, StorageSolution::Op::kWrite, i * bs, bs,
                  pats[i].data(), [&](Status st) {
                    EXPECT_TRUE(st.ok()) << "write " << i;
                    ok++;
                  });
    });
  }
  tb->sim.Run();

  EXPECT_EQ(ok, kWrites);
  EXPECT_GE(repl->degraded_writes(), 1u);
  EXPECT_FALSE(repl->degraded());
  EXPECT_EQ(repl->dirty_sectors(), 0u);
  for (int i = 0; i < kWrites; i++) {
    EXPECT_TRUE(bundle->secondary_drive(0)->store().Matches(
        i * bs, pats[i].data(), bs))
        << "secondary lost write " << i;
  }

  VirtualController* vc = bundle->controller(0);
  ASSERT_GE(vc->num_shards(), 2u);
  for (u32 s = 0; s < 2; s++) {
    // Both shards actually carried traffic...
    EXPECT_GT(vc->shard_stats(s).completed, 0u) << "shard " << s << " idle";
    EXPECT_GT(vc->shard_stats(s).fast_sends, 0u) << "shard " << s;
    EXPECT_GT(vc->shard_stats(s).notify_sends, 0u) << "shard " << s;
    // ...and drained completely despite the dead leg.
    EXPECT_EQ(vc->shard_slots_in_use(s), 0u)
        << "shard " << s << " leaked routing slots";
    EXPECT_EQ(vc->shard_cid_in_use(s), 0u)
        << "shard " << s << " leaked host cids";
  }
  ExpectRouterBooksBalance(obs);
}

// --- Shed/abort storm leaves no residue ---------------------------------------

TEST(ShardStressTest, TenThousandShedsLeaveTablesEmptyAndBounded) {
  // Regression for the cid leak on shed/abort paths: a starved QoS
  // tenant sheds the bulk of a 10k-request closed loop with the busy
  // status. Shed requests must put their slot back without ever holding
  // a cid, admitted ones must free theirs on completion — afterwards
  // every table is empty and no pool grew past its warmup size.
  obs::Observability obs;
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.obs = &obs;
  ssd::SimulatedController phys(&sim, &dma, cfg);
  virt::Vm vm(&sim, virt::VmConfig{.memory_bytes = 32 * MiB});
  NvmetroHost::Config hcfg;
  hcfg.obs = &obs;
  NvmetroHost host(&sim, &phys, hcfg);
  VirtualController* vc = host.CreateController(&vm, {.vm_id = 1});
  auto prog = functions::PassthroughClassifier();
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
  // A trickle-rate tenant with a tiny deferral ring: almost everything
  // sheds on arrival.
  qos::QosConfig qcfg;
  qcfg.device_tokens_per_sec = 2'000;
  qcfg.bucket_depth_ns = 1 * kMs;
  qos::QosScheduler sched(qcfg, &obs);
  ASSERT_TRUE(sched.RegisterTenant({.tenant_id = 1, .max_deferred = 2}).ok());
  vc->AttachQos(&sched, 1);
  host.Start();
  virt::GuestNvmeDriver driver(&vm, vc);
  ASSERT_TRUE(driver.Init(2).ok());

  u64 buf = *vm.memory().AllocPages(1);
  const int kTotal = 10'000;
  int issued = 0, ok = 0, shed = 0, other = 0;
  std::function<void(u16)> issue = [&](u16 q) {
    if (issued >= kTotal) return;
    issued++;
    driver.Submit(q, nvme::MakeRead(1, issued % 64, 1, buf, 0),
                  [&, q](NvmeStatus st, u32) {
                    if (nvme::StatusOk(st)) {
                      ok++;
                    } else if (st == kShedStatus) {
                      shed++;
                    } else {
                      other++;
                    }
                    issue(q);
                  });
  };
  for (u16 q = 0; q < 2; q++) {
    for (int d = 0; d < 8; d++) issue(q);
  }
  sim.Run();

  EXPECT_EQ(ok + shed + other, kTotal);
  EXPECT_EQ(other, 0);
  EXPECT_GT(shed, 9'000) << "the tenant was not actually starved";
  EXPECT_GT(ok, 0);
  EXPECT_EQ(vc->qos_sheds(), static_cast<u64>(shed));
  EXPECT_EQ(vc->qos_waiting(), 0u);

  for (u32 s = 0; s < vc->num_shards(); s++) {
    EXPECT_EQ(vc->shard_slots_in_use(s), 0u)
        << "shard " << s << " leaked routing slots under shed load";
    EXPECT_EQ(vc->shard_cid_in_use(s), 0u)
        << "shard " << s << " leaked host cids under shed load";
    // Bounded pools: closed-loop depth 8 per shard can never need more
    // than one 64-entry chunk of slab or cid table, 10k sheds or not.
    EXPECT_LE(vc->shard_slab_capacity(s), 64u) << "shard " << s;
    EXPECT_LE(vc->shard_cid_capacity(s), 64u) << "shard " << s;
  }
  std::string err;
  EXPECT_TRUE(sched.CheckConservation(&err)) << err;
  ExpectRouterBooksBalance(obs);
}

// --- Pinned simulated time per shard count -----------------------------------

TEST(ShardSweepTest, SimEndPinnedAndSteadyStateAllocFree) {
  // Closed-loop 512 B passthrough, 8 deep on every guest queue (= shard).
  // The warmup grows the pools; the steady phase must not allocate. The
  // end times are the model's figures at 1, 2 and 4 shards: any drift is
  // a change to the simulated model.
  struct Pinned {
    u32 queues;
    SimTime sim_end_ns;
  };
  const Pinned kCells[] = {{1, 139695341}, {2, 72515888}, {4, 46293378}};
  const int kWarmup = 2'000, kSteady = 10'000;
  for (const Pinned& p : kCells) {
    SCOPED_TRACE(std::to_string(p.queues) + " queues");
    sim::Simulator sim;
    mem::IommuSpace dma{nullptr, 1ull << 40};
    ssd::ControllerConfig cfg = baselines::Testbed::DefaultDrive();
    cfg.capacity = 64 * MiB;
    ssd::SimulatedController phys(&sim, &dma, cfg);
    virt::Vm vm(&sim, virt::VmConfig{.memory_bytes = 32 * MiB});
    NvmetroHost host(&sim, &phys, NvmetroHost::Config{});
    VirtualController* vc = host.CreateController(&vm, {.vm_id = 1});
    auto prog = functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    host.Start();
    virt::GuestNvmeDriver driver(&vm, vc);
    ASSERT_TRUE(driver.Init(static_cast<u16>(p.queues)).ok());

    u64 buf = *vm.memory().AllocPages(1);
    int issued = 0, target = 0, completed = 0;
    std::function<void(u16)> issue = [&](u16 q) {
      if (issued >= target) return;
      issued++;
      nvme::Sqe sqe = (issued % 2)
                          ? nvme::MakeWrite(1, issued % 64, 1, buf, 0)
                          : nvme::MakeRead(1, issued % 64, 1, buf, 0);
      driver.Submit(q, sqe, [&, q](NvmeStatus, u32) {
        completed++;
        issue(q);
      });
    };
    target = kWarmup;
    for (u16 q = 0; q < p.queues; q++) {
      for (int d = 0; d < 8; d++) issue(q);
    }
    sim.Run();
    mem::HotPathAllocs::BeginSteadyState();
    target = kWarmup + kSteady;
    for (u16 q = 0; q < p.queues; q++) {
      for (int d = 0; d < 8; d++) issue(q);
    }
    sim.Run();
    mem::HotPathAllocs::EndSteadyState();

    EXPECT_EQ(completed, kWarmup + kSteady);
    EXPECT_EQ(sim.now(), p.sim_end_ns);
    EXPECT_EQ(mem::HotPathAllocs::steady_state_allocs(), 0u);
  }
}

}  // namespace
}  // namespace nvmetro::core
