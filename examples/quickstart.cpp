// Quickstart: bring up NVMetro from the public API, one component at a
// time — simulated drive, VM, router, classifier — then do I/O through
// the guest NVMe driver and inspect the routing statistics.
//
//   $ ./build/examples/quickstart
#include <cstdio>
#include <cstring>

#include "core/router.h"
#include "functions/classifiers.h"
#include "mem/address_space.h"
#include "nvme/prp.h"
#include "obs/obs.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

using namespace nvmetro;

int main() {
  // 0. Observability (optional): a metrics registry + trace recorder that
  //    components publish into. Recording charges no simulated time, so
  //    the run is identical with or without it.
  obs::Observability obs;

  // 1. The host machine: a simulated clock and a physical NVMe drive.
  //    All timing below is simulated; all data and protocol state is
  //    real.
  sim::Simulator sim;
  mem::IommuSpace dma(nullptr, 1ull << 40);
  ssd::ControllerConfig drive_cfg;
  drive_cfg.capacity = 1 * GiB;
  drive_cfg.obs = &obs;
  ssd::SimulatedController drive(&sim, &dma, drive_cfg);

  // 2. A guest VM: guest-physical memory + vCPUs.
  virt::VmConfig vm_cfg;
  vm_cfg.name = "demo-vm";
  vm_cfg.memory_bytes = 32 * MiB;
  virt::Vm vm(&sim, vm_cfg);

  // 3. NVMetro: the router host, and a virtual controller giving this VM
  //    a 256 MiB partition of namespace 1.
  core::NvmetroHost::Config host_cfg;
  host_cfg.obs = &obs;
  core::NvmetroHost nvmetro(&sim, &drive, host_cfg);
  core::VirtualController::Config vc_cfg;
  vc_cfg.vm_id = 1;
  vc_cfg.part_first_lba = 4096;        // partition starts at LBA 4096
  vc_cfg.part_nlb = 256 * MiB / 512;   // 256 MiB of LBAs
  core::VirtualController* vc = nvmetro.CreateController(&vm, vc_cfg);

  // 4. Install an I/O classifier: eBPF bytecode, verified before it is
  //    accepted. The passthrough classifier translates guest LBAs to the
  //    partition and sends everything down the fast path.
  auto classifier = functions::PassthroughClassifier();
  if (!classifier.ok() ||
      !vc->InstallClassifier(std::move(*classifier)).ok()) {
    std::fprintf(stderr, "classifier install failed\n");
    return 1;
  }
  nvmetro.Start();

  // 5. The guest side: an NVMe driver with one I/O queue pair whose rings
  //    live in guest memory.
  virt::GuestNvmeDriver driver(&vm, vc);
  if (!driver.Init(/*nqueues=*/1).ok()) {
    std::fprintf(stderr, "guest driver init failed\n");
    return 1;
  }

  // 6. Write a block: allocate a guest buffer, build PRPs, submit.
  mem::GuestMemory& gm = vm.memory();
  u64 buf = *gm.AllocPages(1);
  const char message[] = "hello from the guest, via NVMetro";
  gm.Write(buf, message, sizeof(message));

  nvme::Sqe write_cmd = nvme::MakeWrite(/*nsid=*/1, /*slba=*/7,
                                        /*nblocks=*/1, buf, 0);
  bool write_ok = false;
  driver.Submit(0, write_cmd, [&](nvme::NvmeStatus st, u32) {
    std::printf("write completed: %s (t=%.1f us)\n", nvme::StatusName(st),
                static_cast<double>(sim.now()) / 1000.0);
    write_ok = nvme::StatusOk(st);
  });
  sim.Run();

  // 7. Read it back into a second buffer.
  u64 buf2 = *gm.AllocPages(1);
  nvme::Sqe read_cmd = nvme::MakeRead(1, 7, 1, buf2, 0);
  bool read_ok = false;
  driver.Submit(0, read_cmd, [&](nvme::NvmeStatus st, u32) {
    char out[64] = {};
    gm.Read(buf2, out, sizeof(message));
    std::printf("read completed:  %s -> \"%s\"\n", nvme::StatusName(st),
                out);
    read_ok = nvme::StatusOk(st) &&
              std::memcmp(out, message, sizeof(message)) == 0;
  });
  sim.Run();

  // 8. Where did the data land physically? At the partition offset —
  //    the classifier's LBA translation at work.
  bool on_media = drive.store().Matches((vc_cfg.part_first_lba + 7) * 512,
                                        message, sizeof(message));
  std::printf("media holds the data at absolute LBA %llu: %s\n",
              (unsigned long long)(vc_cfg.part_first_lba + 7),
              on_media ? "yes" : "no");

  // 9. Routing statistics.
  std::printf(
      "\nrouter stats: %llu completed, %llu fast-path, %llu notify-path, "
      "%llu classifier runs\n",
      (unsigned long long)vc->requests_completed(),
      (unsigned long long)vc->fast_path_sends(),
      (unsigned long long)vc->notify_path_sends(),
      (unsigned long long)vc->classifier()->invocations());
  std::printf("router CPU: %.1f us, guest CPU: %.1f us (simulated)\n",
              static_cast<double>(nvmetro.RouterCpuBusyNs()) / 1000.0,
              static_cast<double>(vm.TotalCpuBusyNs()) / 1000.0);

  // 10. Observability: the write's full lifecycle, span by span, and the
  //     registry's per-path counters (taxonomy in DESIGN.md §8). Request
  //     ids are monotonic from 1, so the write above is request 1.
  std::printf("\nwrite request trace: %s\n",
              obs.trace().PathString(1).c_str());
  std::printf("%s", obs.trace().DumpRequest(1).c_str());
  std::printf("\nmetrics:\n%s", obs.metrics().ToText().c_str());
  return write_ok && read_ok && on_media ? 0 : 1;
}
