// Live disk replication (paper §IV-B): the classifier fans writes out to
// the local drive AND the UIF (which forwards them to a remote NVMe-oF
// secondary) while reads go straight to the local drive; writes complete
// only when both disks have the data — demonstrated here by killing the
// primary and reading everything back from the mirror.
//
//   $ ./build/examples/replicated_disk
#include <cstdio>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"

using namespace nvmetro;
using baselines::SolutionBundle;
using baselines::SolutionKind;
using baselines::StorageSolution;
using baselines::Testbed;

int main() {
  Testbed tb;
  auto bundle =
      SolutionBundle::Create(&tb, SolutionKind::kNvmetroReplication);
  if (!bundle) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  StorageSolution* disk = bundle->vm_solution(0);

  // Write a database-looking set of blocks.
  Rng rng(7);
  const int kBlocks = 32;
  std::vector<std::vector<u8>> data(kBlocks);
  int completed = 0;
  SimTime start = tb.sim.now();
  for (int i = 0; i < kBlocks; i++) {
    data[i] = std::vector<u8>(4096);
    rng.Fill(data[i].data(), data[i].size());
    disk->Submit(0, StorageSolution::Op::kWrite,
                 static_cast<u64>(i) * 4096, 4096, data[i].data(),
                 [&](Status st) {
                   if (st.ok()) completed++;
                 });
  }
  tb.sim.Run();
  std::printf("wrote %d/%d blocks in %.1f us (synchronous mirroring "
              "includes the remote leg)\n",
              completed, kBlocks,
              static_cast<double>(tb.sim.now() - start) / 1000.0);

  // Reads are served by the LOCAL drive only — measure one.
  std::vector<u8> out(4096);
  start = tb.sim.now();
  bool ok = false;
  disk->Submit(0, StorageSolution::Op::kRead, 0, out.size(), out.data(),
               [&](Status st) { ok = st.ok(); });
  tb.sim.Run();
  ok = ok && out == data[0];
  std::printf("local read: %s in %.1f us (no remote round-trip)\n",
              ok ? "ok" : "FAILED",
              static_cast<double>(tb.sim.now() - start) / 1000.0);

  // Verify both copies byte-for-byte.
  bool primary_ok = true, secondary_ok = true;
  for (int i = 0; i < kBlocks; i++) {
    if (!tb.phys->store().Matches(static_cast<u64>(i) * 4096,
                                  data[i].data(), 4096)) {
      primary_ok = false;
    }
    if (!bundle->secondary_drive(0)->store().Matches(
            static_cast<u64>(i) * 4096, data[i].data(), 4096)) {
      secondary_ok = false;
    }
  }
  std::printf("primary holds all blocks:   %s\n",
              primary_ok ? "yes" : "NO");
  std::printf("secondary holds all blocks: %s\n",
              secondary_ok ? "yes" : "NO");

  // Disaster: the primary starts throwing unrecoverable read errors.
  // The mirror still has everything.
  tb.phys->InjectError(
      1, nvme::MakeStatus(nvme::kSctMediaError, nvme::kScUnrecoveredRead),
      1'000'000);
  std::vector<u8> rescued(4096, 0);
  bundle->secondary_drive(0)->store().Read(0, rescued.data(),
                                           rescued.size());
  bool rescued_ok = rescued == data[0];
  std::printf("primary failed; block 0 recovered from the mirror: %s\n",
              rescued_ok ? "intact" : "LOST");
  return completed == kBlocks && ok && primary_ok && secondary_ok &&
                 rescued_ok
             ? 0
             : 1;
}
