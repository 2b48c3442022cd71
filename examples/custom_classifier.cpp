// Writing your own I/O classifier: a quality-of-service policy in ~20
// lines of eBPF assembly, installed (and hot-swapped) at runtime —
// NVMetro's flexibility criterion (paper §III-B). Also shows the verifier
// rejecting an unsafe program.
//
// The policy: LBAs below a threshold are a "protected system area" —
// writes there are denied; everything else passes to the fast path. The
// per-request `state` field and a map are available for richer policies.
//
//   $ ./build/examples/custom_classifier
#include <cstdio>
#include <vector>

#include "common/strutil.h"
#include "core/classifier.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "ebpf/disasm.h"
#include "functions/classifiers.h"
#include "mem/address_space.h"
#include "nvme/prp.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

using namespace nvmetro;

// ctx offsets: opcode=8, slba=24, part_offset=64 (core/classifier.h).
// Verdicts: SEND_HQ|WILL_COMPLETE_HQ = 0x120000;
//           COMPLETE|AccessDenied    = 0x10000 | 0x286.
static const char* kQosClassifier = R"(
; Protect LBAs < 1024 from writes; pass everything else through.
  ldxdw r3, [r1+8]          ; opcode
  jne r3, 1, allow          ; only writes are filtered
  ldxdw r4, [r1+24]         ; slba (guest-relative at HOOK_VSQ)
  jlt r4, 1024, deny
allow:
  ldxdw r4, [r1+24]         ; LBA translation: slba += part_offset
  ldxdw r5, [r1+64]
  add r4, r5
  stxdw [r1+24], r4
  mov r0, 0x120000          ; SEND_HQ | WILL_COMPLETE_HQ
  exit
deny:
  mov r0, 0x10286           ; COMPLETE | status AccessDenied
  exit
)";

int main() {
  sim::Simulator sim;
  mem::IommuSpace dma(nullptr, 1ull << 40);
  ssd::ControllerConfig cfg;
  cfg.capacity = 512 * MiB;
  ssd::SimulatedController drive(&sim, &dma, cfg);
  virt::Vm vm(&sim, {.name = "vm", .memory_bytes = 16 * MiB, .vcpus = 2});
  core::NvmetroHost nvmetro(&sim, &drive);
  auto* vc = nvmetro.CreateController(&vm, {.vm_id = 1});

  // The verifier is the gate: an unsafe classifier (here: an infinite
  // loop) is rejected before it can ever run.
  auto evil = ebpf::Assemble("spin: mov r0, 0\nja spin\nexit\n");
  Status st = vc->InstallClassifier(std::move(*evil));
  std::printf("installing a looping classifier: %s\n",
              st.ok() ? "ACCEPTED (bug!)" : st.ToString().c_str());
  bool ok = !st.ok();

  // Install the QoS policy. The disassembler shows exactly what the
  // verifier approved (bpftool-style; round-trips through the assembler).
  auto qos = ebpf::Assemble(kQosClassifier);
  if (!qos.ok()) {
    std::fprintf(stderr, "assembler: %s\n", qos.status().ToString().c_str());
    return 1;
  }
  std::printf("\nverified program (%zu insns), disassembled:\n%s\n",
              qos->insns().size(), ebpf::Disassemble(*qos)->c_str());
  st = vc->InstallClassifier(std::move(*qos));
  std::printf("installing the QoS classifier: %s\n",
              st.ok() ? "verified and installed" : st.ToString().c_str());
  if (!st.ok()) return 1;
  nvmetro.Start();

  virt::GuestNvmeDriver driver(&vm, vc);
  if (!driver.Init(1).ok()) return 1;

  auto write_at = [&](u64 lba) {
    mem::GuestMemory& gm = vm.memory();
    u64 buf = *gm.AllocPages(1);
    std::vector<u8> block(512, 0x42);
    gm.Write(buf, block.data(), block.size());
    nvme::NvmeStatus result = 0xFFF;  // stays so if the write never completes
    driver.Submit(0, nvme::MakeWrite(1, lba, 1, buf, 0),
                  [&](nvme::NvmeStatus s, u32) { result = s; });
    sim.Run();
    return result;
  };

  nvme::NvmeStatus protected_write = write_at(10);
  nvme::NvmeStatus normal_write = write_at(5000);
  std::printf("write to LBA 10 (protected): %s\n",
              nvme::StatusName(protected_write));
  std::printf("write to LBA 5000:           %s\n",
              nvme::StatusName(normal_write));

  // Policies are hot-swappable without touching the VM (paper: install,
  // migrate and remove storage functions on the fly).
  auto open_policy = functions::PassthroughClassifier();
  if (!vc->InstallClassifier(std::move(*open_policy)).ok()) return 1;
  nvme::NvmeStatus swapped_write = write_at(10);
  std::printf("after hot-swap to passthrough, LBA 10: %s\n",
              nvme::StatusName(swapped_write));
  ok = ok && !nvme::StatusOk(protected_write) &&
       nvme::StatusOk(normal_write) && nvme::StatusOk(swapped_write);
  return ok ? 0 : 1;
}
