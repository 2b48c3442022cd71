// Multi-VM sharing: several VMs share one physical NVMe namespace as
// isolated partitions, all served by a single shared router worker —
// the setup behind the paper's scalability evaluation (Figure 5) and one
// thing SPDK-style exclusive device assignment cannot do (§V-F).
//
//   $ ./build/examples/multi_vm
#include <cstdio>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "workload/fio.h"

using namespace nvmetro;
using baselines::SolutionBundle;
using baselines::SolutionKind;
using baselines::SolutionParams;
using baselines::StorageSolution;
using baselines::Testbed;

int main() {
  Testbed tb;
  SolutionParams params;
  params.num_vms = 4;
  params.vm_cfg.vcpus = 1;
  params.vm_cfg.memory_bytes = 64 * MiB;
  params.router_workers = 1;  // ONE host thread serves all four VMs
  auto bundle = SolutionBundle::Create(&tb, SolutionKind::kNvmetro, params);
  if (!bundle) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  // Each VM writes its own signature at ITS LBA 0; partitions keep them
  // apart on the shared namespace.
  int done = 0;
  std::vector<std::vector<u8>> sig(4);
  for (u32 i = 0; i < 4; i++) {
    sig[i] = std::vector<u8>(512, static_cast<u8>(0xA0 + i));
    bundle->vm_solution(i)->Submit(0, StorageSolution::Op::kWrite, 0, 512,
                                   sig[i].data(), [&](Status st) {
                                     if (st.ok()) done++;
                                   });
  }
  tb.sim.Run();
  std::printf("%d/4 VMs wrote their signature at guest LBA 0\n", done);
  bool isolated = done == 4;
  for (u32 i = 0; i < 4; i++) {
    std::vector<u8> out(512);
    bool ok = false;
    bundle->vm_solution(i)->Submit(0, StorageSolution::Op::kRead, 0, 512,
                                   out.data(),
                                   [&](Status st) { ok = st.ok(); });
    tb.sim.Run();
    ok = ok && out == sig[i];
    std::printf("  vm%u reads back its own data: %s\n", i,
                ok ? "yes (isolated)" : "CROSS-TALK!");
    isolated = isolated && ok;
  }

  // Now drive all four VMs concurrently with 512B random reads at QD32
  // and watch one router thread serve them all.
  workload::FioConfig cfg;
  cfg.block_size = 512;
  cfg.queue_depth = 32;
  cfg.mode = workload::FioMode::kRandRead;
  cfg.random_region = 128 * MiB;
  cfg.warmup = 20 * kMs;
  cfg.duration = 100 * kMs;
  std::vector<StorageSolution*> sols;
  for (u32 i = 0; i < 4; i++) sols.push_back(bundle->vm_solution(i));
  auto results = workload::Fio::RunMulti(&tb.sim, sols, cfg);
  double total = 0;
  for (u32 i = 0; i < 4; i++) {
    std::printf("  vm%u: %.1f KIOPS (median %.0f us)\n", i,
                results[i].iops / 1000.0,
                static_cast<double>(results[i].lat.Median()) / 1000.0);
    total += results[i].iops;
  }
  std::printf("aggregate: %.1f KIOPS through 1 shared router worker "
              "(host CPU %.0f%%)\n",
              total / 1000.0, results[0].host_cpu_pct);
  return isolated && total > 0 ? 0 : 1;
}
