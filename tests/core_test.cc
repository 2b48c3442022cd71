// Integration tests for the NVMetro core: router + classifier + paths,
// with the real guest driver, simulated device, UIF framework and the
// paper's storage functions (encryption, SGX encryption, replication).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/classifier.h"
#include "core/notify.h"
#include "core/router.h"
#include "crypto/xts.h"
#include "ebpf/assembler.h"
#include "functions/classifiers.h"
#include "functions/encryptor_uif.h"
#include "functions/replicator_uif.h"
#include "kblock/devices.h"
#include "kblock/dm.h"
#include "mem/address_space.h"
#include "nvme/prp.h"
#include "ssd/controller.h"
#include "uif/framework.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

struct CoreFixture : ::testing::Test {
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};  // host windows live high
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<NvmetroHost> host;
  VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;

  void Build(VirtualController::Config vc_cfg = {},
             const char* classifier_asm = nullptr) {
    ssd::ControllerConfig cfg;
    cfg.capacity = 64 * MiB;
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    virt::VmConfig vm_cfg;
    vm_cfg.memory_bytes = 16 * MiB;
    vm = std::make_unique<virt::Vm>(&sim, vm_cfg);
    host = std::make_unique<NvmetroHost>(&sim, phys.get());
    vc_cfg.vm_id = 1;
    vc = host->CreateController(vm.get(), vc_cfg);
    auto prog = classifier_asm
                    ? ebpf::Assemble(classifier_asm)
                    : functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    ASSERT_TRUE(driver->Init(1).ok());
  }

  /// Issues one I/O through the full guest stack; returns its status.
  NvmeStatus GuestIo(u8 opcode, u64 lba, std::vector<u8>* data) {
    mem::GuestMemory& gm = vm->memory();
    u64 len = data ? data->size() : 0;
    u64 pages = data ? (len + mem::kPageSize - 1) / mem::kPageSize + 1 : 1;
    auto buf = gm.AllocPages(pages);
    EXPECT_TRUE(buf.ok());
    nvme::Sqe sqe;
    sqe.opcode = opcode;
    sqe.nsid = 1;
    nvme::PrpChain chain;
    if (data) {
      auto c = nvme::BuildPrps(gm, *buf, len);
      EXPECT_TRUE(c.ok());
      chain = *c;
      if (opcode == nvme::kCmdWrite || opcode == nvme::kCmdCompare) {
        EXPECT_TRUE(nvme::PrpWrite(gm, chain.prp1, chain.prp2, len,
                                   data->data())
                        .ok());
      }
      sqe.prp1 = chain.prp1;
      sqe.prp2 = chain.prp2;
      sqe.set_slba(lba);
      sqe.set_nlb0(static_cast<u16>(len / 512 - 1));
    } else {
      sqe.set_slba(lba);
    }
    NvmeStatus status = 0xFFF;
    bool done = false;
    driver->Submit(0, sqe, [&](NvmeStatus st, u32) {
      status = st;
      done = true;
    });
    sim.Run();
    EXPECT_TRUE(done) << "request never completed";
    if (done && data && opcode == nvme::kCmdRead) {
      EXPECT_TRUE(
          nvme::PrpRead(gm, chain.prp1, chain.prp2, len, data->data()).ok());
    }
    if (data) nvme::FreePrpChain(gm, chain);
    gm.FreePages(*buf, pages);
    return status;
  }

  NvmeStatus GuestWrite(u64 lba, std::vector<u8> data) {
    return GuestIo(nvme::kCmdWrite, lba, &data);
  }
  NvmeStatus GuestRead(u64 lba, std::vector<u8>* out) {
    return GuestIo(nvme::kCmdRead, lba, out);
  }
};

// --- Basic routing -------------------------------------------------------------

TEST_F(CoreFixture, PassthroughWriteReadRoundTrip) {
  Build();
  Rng rng(1);
  std::vector<u8> in(4096), out(4096, 0);
  rng.Fill(in.data(), in.size());
  EXPECT_EQ(GuestWrite(10, in), nvme::kStatusSuccess);
  EXPECT_EQ(GuestRead(10, &out), nvme::kStatusSuccess);
  EXPECT_EQ(in, out);
  EXPECT_EQ(vc->fast_path_sends(), 2u);
  EXPECT_EQ(vc->requests_completed(), 2u);
  EXPECT_EQ(vc->requests_failed(), 0u);
}

TEST_F(CoreFixture, PartitionTranslationLandsAtOffset) {
  VirtualController::Config cfg;
  cfg.part_first_lba = 1000;
  cfg.part_nlb = 10000;
  Build(cfg);
  std::vector<u8> in(512, 0x9A);
  EXPECT_EQ(GuestWrite(5, in), nvme::kStatusSuccess);
  EXPECT_TRUE(phys->store().Matches((1000 + 5) * 512, in.data(), in.size()));
  // Guest LBA 5 must NOT be at absolute LBA 5.
  EXPECT_FALSE(phys->store().Matches(5 * 512, in.data(), in.size()));
}

TEST_F(CoreFixture, RouterEnforcesPartitionIsolation) {
  // A buggy classifier that "forgets" the LBA translation: the router's
  // containment check must stop the request escaping the partition.
  const char* kBuggy =
      "  mov r0, 0x120000\n"  // SEND_HQ | WILL_COMPLETE_HQ, no translate
      "  exit\n";
  VirtualController::Config cfg;
  cfg.part_first_lba = 1000;
  cfg.part_nlb = 10000;
  Build(cfg, kBuggy);
  std::vector<u8> in(512, 1);
  EXPECT_EQ(GuestWrite(5, in),
            nvme::MakeStatus(nvme::kSctGeneric, nvme::kScLbaOutOfRange));
  EXPECT_EQ(vc->requests_failed(), 1u);
  // And nothing was written at absolute LBA 5.
  EXPECT_TRUE(phys->store().Matches(5 * 512, std::vector<u8>(512, 0).data(),
                                    512));
}

TEST_F(CoreFixture, GuestCannotReachBeyondPartitionEnd) {
  VirtualController::Config cfg;
  cfg.part_first_lba = 0;
  cfg.part_nlb = 100;
  Build(cfg);
  std::vector<u8> in(512, 1);
  EXPECT_EQ(GuestWrite(99, in), nvme::kStatusSuccess);
  EXPECT_EQ(GuestWrite(100, in),
            nvme::MakeStatus(nvme::kSctGeneric, nvme::kScLbaOutOfRange));
}

TEST_F(CoreFixture, RoguePrpOutsideGuestMemoryFailsCleanly) {
  // A malicious or buggy guest points its PRP at an address far beyond
  // its own RAM. The per-queue DMA context (the vIOMMU stand-in) must
  // fail the transfer with an error completion — never touch memory it
  // does not own, never wedge the router.
  Build();
  nvme::Sqe sqe = nvme::MakeWrite(1, 0, 1, /*prp1=*/1ull << 38, 0);
  NvmeStatus st = 0xFFF;
  driver->Submit(0, sqe, [&](NvmeStatus s, u32) { st = s; });
  sim.Run();
  EXPECT_NE(st, nvme::kStatusSuccess);
  EXPECT_NE(st, 0xFFF) << "request hung";
  // The drive's media is untouched and the stack still works.
  EXPECT_TRUE(phys->store().Matches(0, std::vector<u8>(512, 0).data(), 512));
  std::vector<u8> in(512, 7), out(512, 0);
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);
  EXPECT_EQ(GuestRead(0, &out), nvme::kStatusSuccess);
  EXPECT_EQ(in, out);
}

TEST_F(CoreFixture, VerifierRejectsUnsafeClassifier) {
  Build();
  // Loop -> rejected at install time, old classifier stays active.
  auto bad = ebpf::Assemble("l: mov r0, 0\nja l\nexit\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(vc->InstallClassifier(std::move(*bad)).ok());
  std::vector<u8> in(512, 2);
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);  // still works
}

TEST_F(CoreFixture, ClassifierCannotWriteReadOnlyCtxFields) {
  Build();
  auto bad = ebpf::Assemble(
      "  mov r2, 0\n"
      "  stxdw [r1+64], r2\n"  // part_offset is read-only
      "  mov r0, 0x120000\n"
      "  exit\n");
  ASSERT_TRUE(bad.ok());
  Status st = vc->InstallClassifier(std::move(*bad));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ctx write"), std::string::npos);
}

TEST_F(CoreFixture, ReadOnlyClassifierDeniesWrites) {
  Build({}, functions::ReadOnlyClassifierAsm());
  std::vector<u8> in(512, 3), out(512);
  EXPECT_EQ(GuestWrite(0, in),
            nvme::MakeStatus(nvme::kSctMediaError, nvme::kScAccessDenied));
  EXPECT_EQ(GuestRead(0, &out), nvme::kStatusSuccess);
  EXPECT_EQ(vc->fast_path_sends(), 1u);  // only the read reached the disk
}

TEST_F(CoreFixture, VendorCommandPassesToHardware) {
  Build({}, functions::VendorPassClassifierAsm());
  nvme::Sqe sqe;
  sqe.opcode = 0x95;  // vendor-specific
  sqe.nsid = 1;
  NvmeStatus status = 0xFFF;
  u32 result = 0;
  driver->Submit(0, sqe, [&](NvmeStatus st, u32 r) {
    status = st;
    result = r;
  });
  sim.Run();
  EXPECT_EQ(status, nvme::kStatusSuccess);
  EXPECT_EQ(result, 0x56454E44u);  // the drive's vendor reply
}

TEST_F(CoreFixture, ClassifierHotSwapUnderOperation) {
  Build();
  std::vector<u8> in(512, 4);
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);
  // Swap in the read-only policy on the fly (paper §III-B: install,
  // migrate and remove storage functions without VM reboots).
  auto ro = functions::ReadOnlyClassifier();
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(vc->InstallClassifier(std::move(*ro)).ok());
  EXPECT_EQ(GuestWrite(0, in),
            nvme::MakeStatus(nvme::kSctMediaError, nvme::kScAccessDenied));
  std::vector<u8> out(512);
  EXPECT_EQ(GuestRead(0, &out), nvme::kStatusSuccess);
  EXPECT_EQ(out, in);  // first write is still there
}

TEST_F(CoreFixture, VmParkingAfterIdle) {
  Build();
  // Probe parking state at fixed points around a write: shortly after the
  // I/O the VM is active (not parked); long after, it is parked.
  bool parked_soon = true, parked_late = false;
  sim.ScheduleAt(150 * kUs, [&] { parked_soon = vc->parked(); });
  sim.ScheduleAt(5 * kMs, [&] { parked_late = vc->parked(); });
  std::vector<u8> in(512, 5);
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);  // completes < 150us
  EXPECT_FALSE(parked_soon);
  EXPECT_TRUE(parked_late);
  // A parked VM still works; its doorbell just traps to wake the path.
  EXPECT_EQ(GuestWrite(1, in), nvme::kStatusSuccess);
}

TEST_F(CoreFixture, RouterChargesCpu) {
  Build();
  std::vector<u8> in(4096, 6);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(GuestWrite(static_cast<u64>(i) * 8, in),
              nvme::kStatusSuccess);
  }
  EXPECT_GT(host->RouterCpuBusyNs(), 0u);
  EXPECT_GT(vc->classifier()->invocations(), 9u);
}

TEST_F(CoreFixture, FlushRoutesThroughFastPath) {
  Build();
  EXPECT_EQ(GuestIo(nvme::kCmdFlush, 0, nullptr), nvme::kStatusSuccess);
}

// --- Encryption function ---------------------------------------------------------

/// A buggy classifier that sends commands to the UIF only and "forgets"
/// the LBA translation: SEND_NQ | WILL_COMPLETE_NQ.
constexpr const char* kNotifyOnlyUntranslated =
    "  mov r0, 0x240000\n"
    "  exit\n";

struct EncryptionFixture : CoreFixture {
  std::unique_ptr<kblock::NvmeBlockDevice> kernel_dev;
  std::unique_ptr<uif::UifHost> uif_host;
  std::unique_ptr<core::NotifyChannel> channel;
  std::unique_ptr<functions::EncryptorUif> encryptor;
  std::vector<u8> key = std::vector<u8>(64, 0);

  void BuildEncryption(u64 part_first = 0) {
    Rng rng(2024);
    rng.Fill(key.data(), key.size());
    VirtualController::Config cfg;
    cfg.part_first_lba = part_first;
    cfg.part_nlb = 32 * MiB / 512;
    Build(cfg, functions::EncryptorClassifierAsm());
    kernel_dev = std::make_unique<kblock::NvmeBlockDevice>(
        &sim, phys.get(), &dma, 1);
    auto enc = functions::EncryptorUif::Create(kernel_dev.get(), key.data(),
                                               key.size());
    ASSERT_TRUE(enc.ok());
    encryptor = std::move(*enc);
    channel = std::make_unique<core::NotifyChannel>();
    uif_host = std::make_unique<uif::UifHost>(&sim, "enc");
    vc->AttachUif(channel.get());
    uif_host->AddFunction(channel.get(), vm.get(), encryptor.get());
    uif_host->Start();
  }
};

TEST_F(EncryptionFixture, WriteReadRoundTripThroughEncryption) {
  BuildEncryption();
  Rng rng(3);
  std::vector<u8> in(4096), out(4096, 0);
  rng.Fill(in.data(), in.size());
  EXPECT_EQ(GuestWrite(20, in), nvme::kStatusSuccess);
  EXPECT_EQ(GuestRead(20, &out), nvme::kStatusSuccess);
  EXPECT_EQ(in, out);
  EXPECT_EQ(encryptor->writes_encrypted(), 1u);
  EXPECT_EQ(encryptor->reads_decrypted(), 1u);
}

TEST_F(EncryptionFixture, MediaHoldsDmCryptCompatibleCiphertext) {
  BuildEncryption();
  Rng rng(4);
  std::vector<u8> in(2048);
  rng.Fill(in.data(), in.size());
  EXPECT_EQ(GuestWrite(8, in), nvme::kStatusSuccess);
  // Media must not hold plaintext.
  EXPECT_FALSE(phys->store().Matches(8 * 512, in.data(), in.size()));
  // It must hold aes-xts-plain64 ciphertext with guest-relative tweaks —
  // exactly what dm-crypt would produce on this partition.
  auto xts = crypto::XtsCipher::Create(key.data(), key.size());
  ASSERT_TRUE(xts.ok());
  std::vector<u8> expect(in.size());
  xts->EncryptRange(8, 512, in.data(), expect.data(), in.size());
  EXPECT_TRUE(phys->store().Matches(8 * 512, expect.data(), expect.size()));
}

TEST_F(EncryptionFixture, PartitionedEncryptionUsesGuestRelativeTweaks) {
  BuildEncryption(/*part_first=*/4096);
  Rng rng(5);
  std::vector<u8> in(1024);
  rng.Fill(in.data(), in.size());
  EXPECT_EQ(GuestWrite(2, in), nvme::kStatusSuccess);
  auto xts = crypto::XtsCipher::Create(key.data(), key.size());
  ASSERT_TRUE(xts.ok());
  std::vector<u8> expect(in.size());
  // Tweak = guest sector 2 (not absolute 4098) => dm-crypt compatible.
  xts->EncryptRange(2, 512, in.data(), expect.data(), in.size());
  EXPECT_TRUE(
      phys->store().Matches((4096 + 2) * 512, expect.data(), expect.size()));
}

TEST_F(EncryptionFixture, NotifyOnlyVerdictCannotEscapePartition) {
  // The notify leg is contained like the fast and kernel legs: the
  // encryptor writes namespace-absolute sectors, so an untranslated
  // guest LBA would land in another VM's part of the drive.
  BuildEncryption(/*part_first=*/4096);
  auto prog = ebpf::Assemble(kNotifyOnlyUntranslated);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
  std::vector<u8> in(512, 0x5A);
  EXPECT_EQ(GuestWrite(5, in),
            nvme::MakeStatus(nvme::kSctGeneric, nvme::kScLbaOutOfRange));
  EXPECT_EQ(vc->requests_failed(), 1u);
  EXPECT_EQ(encryptor->writes_encrypted(), 0u);
  // Absolute LBA 5, outside the partition, is untouched.
  EXPECT_TRUE(phys->store().Matches(5 * 512, std::vector<u8>(512, 0).data(),
                                    512));
}

TEST_F(EncryptionFixture, DmCryptCanReadNvmetroEncryptedDisk) {
  BuildEncryption();
  Rng rng(6);
  std::vector<u8> in(4096);
  rng.Fill(in.data(), in.size());
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);
  // Mount the same media under our dm-crypt target and read it back.
  sim::VCpu w(&sim, "kcryptd");
  kblock::NvmeBlockDevice raw(&sim, phys.get(), &dma, 1);
  auto dmc = kblock::DmCrypt::Create(&sim, &raw, key.data(), key.size(),
                                     {&w});
  ASSERT_TRUE(dmc.ok());
  std::vector<u8> out(4096, 0);
  bool done = false;
  (*dmc)->Submit(kblock::Bio::Read(0, out.data(), out.size(), [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  }));
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(out, in);
}

TEST_F(EncryptionFixture, NvmetroCanReadDmCryptEncryptedDisk) {
  BuildEncryption();
  // Write through dm-crypt first...
  sim::VCpu w(&sim, "kcryptd");
  kblock::NvmeBlockDevice raw(&sim, phys.get(), &dma, 1);
  auto dmc = kblock::DmCrypt::Create(&sim, &raw, key.data(), key.size(),
                                     {&w});
  ASSERT_TRUE(dmc.ok());
  Rng rng(7);
  std::vector<u8> in(2048);
  rng.Fill(in.data(), in.size());
  bool done = false;
  (*dmc)->Submit(
      kblock::Bio::Write(40, in.data(), in.size(), [&](Status st) {
        EXPECT_TRUE(st.ok());
        done = true;
      }));
  sim.Run();
  ASSERT_TRUE(done);
  // ...then read through the NVMetro encryption function.
  std::vector<u8> out(2048, 0);
  EXPECT_EQ(GuestRead(40, &out), nvme::kStatusSuccess);
  EXPECT_EQ(out, in);
}

TEST_F(EncryptionFixture, DeviceReadErrorForwardedByClassifier) {
  BuildEncryption();
  std::vector<u8> in(512, 8);
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);
  // Listing 1 line 8: HOOK_HCQ forwards the device's error | COMPLETE.
  phys->InjectError(
      1, nvme::MakeStatus(nvme::kSctMediaError, nvme::kScUnrecoveredRead),
      1);
  std::vector<u8> out(512);
  EXPECT_EQ(GuestRead(0, &out),
            nvme::MakeStatus(nvme::kSctMediaError, nvme::kScUnrecoveredRead));
  // The UIF never saw the failed read.
  EXPECT_EQ(encryptor->reads_decrypted(), 0u);
}

TEST_F(EncryptionFixture, ClassifierRunsTwicePerReadOncePerWrite) {
  BuildEncryption();
  std::vector<u8> in(512, 9);
  u64 before = vc->classifier()->invocations();
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);
  EXPECT_EQ(vc->classifier()->invocations() - before, 1u);
  before = vc->classifier()->invocations();
  std::vector<u8> out(512);
  EXPECT_EQ(GuestRead(0, &out), nvme::kStatusSuccess);
  EXPECT_EQ(vc->classifier()->invocations() - before, 2u);
}

// --- Replication function ----------------------------------------------------------

struct ReplicationFixture : CoreFixture {
  std::unique_ptr<kblock::RamBlockDevice> secondary_media;
  std::unique_ptr<kblock::RemoteBlockDevice> secondary;
  std::unique_ptr<uif::UifHost> uif_host;
  std::unique_ptr<core::NotifyChannel> channel;
  std::unique_ptr<functions::ReplicatorUif> replicator;

  void BuildReplication(u64 part_first = 0) {
    VirtualController::Config cfg;
    if (part_first) {
      cfg.part_first_lba = part_first;
      cfg.part_nlb = 32 * MiB / 512;
    }
    Build(cfg, functions::ReplicatorClassifierAsm());
    secondary_media =
        std::make_unique<kblock::RamBlockDevice>(&sim, 64 * MiB, 20 * kUs);
    secondary = std::make_unique<kblock::RemoteBlockDevice>(
        &sim, secondary_media.get());
    replicator = std::make_unique<functions::ReplicatorUif>(secondary.get());
    channel = std::make_unique<core::NotifyChannel>();
    uif_host = std::make_unique<uif::UifHost>(&sim, "repl");
    vc->AttachUif(channel.get());
    uif_host->AddFunction(channel.get(), vm.get(), replicator.get());
    uif_host->Start();
  }
};

TEST_F(ReplicationFixture, WritesLandOnBothDisks) {
  BuildReplication();
  Rng rng(10);
  for (int i = 0; i < 10; i++) {
    std::vector<u8> data(512 * (1 + rng.NextBounded(4)));
    rng.Fill(data.data(), data.size());
    u64 lba = rng.NextBounded(1000);
    ASSERT_EQ(GuestWrite(lba, data), nvme::kStatusSuccess);
    EXPECT_TRUE(phys->store().Matches(lba * 512, data.data(), data.size()));
    EXPECT_TRUE(secondary_media->store().Matches(lba * 512, data.data(),
                                                 data.size()));
  }
  EXPECT_EQ(replicator->writes_replicated(), 10u);
}

TEST_F(ReplicationFixture, WriteWaitsForBothLegs) {
  BuildReplication();
  std::vector<u8> in(512, 0xA1);
  SimTime start = sim.now();
  EXPECT_EQ(GuestWrite(0, in), nvme::kStatusSuccess);
  // Must exceed the remote leg's latency (20us media + 2x link).
  EXPECT_GE(sim.now() - start, 30 * kUs);
  EXPECT_EQ(vc->fast_path_sends(), 1u);
  EXPECT_EQ(vc->notify_path_sends(), 1u);
}

TEST_F(ReplicationFixture, ReadsServedLocallyWithoutUif) {
  BuildReplication();
  std::vector<u8> in(512, 0xB2);
  EXPECT_EQ(GuestWrite(3, in), nvme::kStatusSuccess);
  u64 notify_before = vc->notify_path_sends();
  std::vector<u8> out(512);
  EXPECT_EQ(GuestRead(3, &out), nvme::kStatusSuccess);
  EXPECT_EQ(out, in);
  EXPECT_EQ(vc->notify_path_sends(), notify_before);  // read skipped UIF
}

TEST_F(ReplicationFixture, NotifyOnlyVerdictCannotEscapePartition) {
  // The replicator maps a namespace-absolute sector back into the
  // partition; an untranslated LBA would wrap, fail on the secondary and
  // silently degrade the mirror. The router refuses the leg instead.
  BuildReplication(/*part_first=*/4096);
  auto prog = ebpf::Assemble(kNotifyOnlyUntranslated);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
  std::vector<u8> in(512, 0x6B);
  EXPECT_EQ(GuestWrite(5, in),
            nvme::MakeStatus(nvme::kSctGeneric, nvme::kScLbaOutOfRange));
  EXPECT_EQ(vc->requests_failed(), 1u);
  EXPECT_FALSE(replicator->degraded());
  EXPECT_EQ(replicator->writes_replicated(), 0u);
  EXPECT_EQ(replicator->writes_failed(), 0u);
}

// --- Kernel path -------------------------------------------------------------------

TEST_F(CoreFixture, KernelPathRoundTrip) {
  // Classifier that routes everything via the kernel path.
  const char* kKernelAsm =
      "  ldxdw r4, [r1+24]\n"
      "  ldxdw r5, [r1+64]\n"
      "  add r4, r5\n"
      "  stxdw [r1+24], r4\n"
      "  mov r0, 0x480000\n"  // SEND_KQ | WILL_COMPLETE_KQ
      "  exit\n";
  Build({}, kKernelAsm);
  auto kernel_dev = std::make_unique<kblock::NvmeBlockDevice>(
      &sim, phys.get(), &dma, 1);
  vc->AttachKernelDevice(kernel_dev.get());
  Rng rng(11);
  std::vector<u8> in(8192), out(8192, 0);
  rng.Fill(in.data(), in.size());
  EXPECT_EQ(GuestWrite(50, in), nvme::kStatusSuccess);
  EXPECT_EQ(GuestRead(50, &out), nvme::kStatusSuccess);
  EXPECT_EQ(in, out);
  EXPECT_EQ(vc->kernel_path_sends(), 2u);
  EXPECT_EQ(vc->fast_path_sends(), 0u);
}

// --- KV command set through the router ----------------------------------------------

TEST_F(CoreFixture, KvCommandSetAdoptedByClassifierOnly) {
  // Build a testbed whose drive speaks the KV command set on nsid 1; the
  // only change needed on the NVMetro side is the classifier (paper
  // §III-B).
  ssd::ControllerConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.kv_nsid = 1;
  phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
  virt::VmConfig vm_cfg;
  vm_cfg.memory_bytes = 16 * MiB;
  vm = std::make_unique<virt::Vm>(&sim, vm_cfg);
  host = std::make_unique<NvmetroHost>(&sim, phys.get());
  vc = host->CreateController(vm.get(), {.vm_id = 1});
  auto prog = functions::KvPassClassifier();
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
  host->Start();
  driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
  ASSERT_TRUE(driver->Init(1).ok());

  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(1);
  const char value[] = "stored through NVMetro's router";
  ASSERT_TRUE(gm.Write(buf, value, sizeof(value)).ok());
  nvme::KvKey key{};
  memcpy(key.bytes, "guest-key", 9);

  NvmeStatus status = 0xFFF;
  driver->Submit(0, nvme::MakeKvStore(1, key, sizeof(value), buf, 0),
                 [&](NvmeStatus st, u32) { status = st; });
  sim.Run();
  EXPECT_EQ(status, nvme::kStatusSuccess);
  EXPECT_EQ(phys->kv_entry_count(), 1u);

  u64 out = *gm.AllocPages(1);
  u32 retrieved_len = 0;
  driver->Submit(0, nvme::MakeKvRetrieve(1, key, 4096, out, 0),
                 [&](NvmeStatus st, u32 result) {
                   status = st;
                   retrieved_len = result;
                 });
  sim.Run();
  EXPECT_EQ(status, nvme::kStatusSuccess);
  EXPECT_EQ(retrieved_len, sizeof(value));
  char got[sizeof(value)] = {};
  ASSERT_TRUE(gm.Read(out, got, sizeof(value)).ok());
  EXPECT_STREQ(got, value);

  // Regular NVM commands still work side by side, LBA-translated.
  std::vector<u8> block(512, 0x11);
  EXPECT_EQ(GuestWrite(3, block), nvme::kStatusSuccess);
  std::vector<u8> back(512);
  EXPECT_EQ(GuestRead(3, &back), nvme::kStatusSuccess);
  EXPECT_EQ(back, block);
}

// --- Multi-VM ----------------------------------------------------------------------

TEST(MultiVmTest, PartitionedVmsDoNotInterfere) {
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig cfg;
  cfg.capacity = 64 * MiB;
  ssd::SimulatedController phys(&sim, &dma, cfg);
  NvmetroHost host(&sim, &phys);

  constexpr int kVms = 3;
  constexpr u64 kPartLba = 8192;
  std::vector<std::unique_ptr<virt::Vm>> vms;
  std::vector<std::unique_ptr<virt::GuestNvmeDriver>> drivers;
  std::vector<VirtualController*> vcs;
  for (int i = 0; i < kVms; i++) {
    virt::VmConfig vm_cfg;
    vm_cfg.name = "vm" + std::to_string(i);
    vm_cfg.memory_bytes = 8 * MiB;
    vms.push_back(std::make_unique<virt::Vm>(&sim, vm_cfg));
    VirtualController::Config c;
    c.vm_id = i + 1;
    c.part_first_lba = i * kPartLba;
    c.part_nlb = kPartLba;
    vcs.push_back(host.CreateController(vms.back().get(), c));
    auto prog = functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(vcs.back()->InstallClassifier(std::move(*prog)).ok());
  }
  host.Start();
  for (int i = 0; i < kVms; i++) {
    drivers.push_back(std::make_unique<virt::GuestNvmeDriver>(
        vms[i].get(), vcs[i]));
    ASSERT_TRUE(drivers[i]->Init(1).ok());
  }

  // Every VM writes a distinct pattern at ITS guest LBA 0, same gpa
  // layout — per-queue DMA contexts must keep them apart.
  std::vector<std::vector<u8>> patterns(kVms);
  int completions = 0;
  for (int i = 0; i < kVms; i++) {
    mem::GuestMemory& gm = vms[i]->memory();
    auto buf = gm.AllocPages(1);
    ASSERT_TRUE(buf.ok());
    patterns[i] = std::vector<u8>(512, static_cast<u8>(0x10 + i));
    ASSERT_TRUE(gm.Write(*buf, patterns[i].data(), 512).ok());
    nvme::Sqe sqe = nvme::MakeWrite(1, 0, 1, *buf, 0);
    drivers[i]->Submit(0, sqe, [&](NvmeStatus st, u32) {
      EXPECT_EQ(st, nvme::kStatusSuccess);
      completions++;
    });
  }
  sim.Run();
  EXPECT_EQ(completions, kVms);
  for (int i = 0; i < kVms; i++) {
    EXPECT_TRUE(phys.store().Matches(i * kPartLba * 512, patterns[i].data(),
                                     512))
        << "vm " << i;
  }
}

// --- UIF framework behaviour ---------------------------------------------------------

struct EchoUif : uif::UifBase {
  bool work(const nvme::Sqe&, u32, u16& status) override {
    calls++;
    status = nvme::kStatusSuccess;
    return false;
  }
  int calls = 0;
};

TEST(UifFrameworkTest, AdaptivePollingSleepsAndWakes) {
  sim::Simulator sim;
  core::NotifyChannel channel;
  virt::Vm vm(&sim, {});
  uif::UifHostParams params;
  params.threads = 1;
  params.idle_timeout_ns = 50 * kUs;
  uif::UifHost host(&sim, "echo", params);
  EchoUif echo;
  host.AddFunction(&channel, &vm, &echo);
  host.Start();
  sim.RunFor(1 * kMs);
  EXPECT_TRUE(host.sleeping());
  u64 busy_asleep = host.TotalCpuBusyNs();
  EXPECT_LE(busy_asleep, 60 * kUs);  // only the pre-sleep window
  // Wake it with a request.
  core::NotifyEntry e;
  e.sqe = nvme::MakeFlush(1);
  e.tag = 1;
  channel.PushRequest(e);
  sim.Run();
  EXPECT_EQ(echo.calls, 1);
  core::NotifyCompletion c;
  ASSERT_TRUE(channel.PopCompletion(&c));
  EXPECT_EQ(c.tag, 1u);
  EXPECT_EQ(c.status, nvme::kStatusSuccess);
}

TEST(UifFrameworkTest, MultipleFunctionsShareOneProcess) {
  sim::Simulator sim;
  core::NotifyChannel ch1, ch2;
  virt::Vm vm1(&sim, {.name = "a", .memory_bytes = 4 * MiB, .vcpus = 1});
  virt::Vm vm2(&sim, {.name = "b", .memory_bytes = 4 * MiB, .vcpus = 1});
  uif::UifHost host(&sim, "multi");
  EchoUif e1, e2;
  host.AddFunction(&ch1, &vm1, &e1);
  host.AddFunction(&ch2, &vm2, &e2);
  host.Start();
  core::NotifyEntry entry;
  entry.sqe = nvme::MakeFlush(1);
  for (u32 t = 0; t < 5; t++) {
    entry.tag = t;
    ch1.PushRequest(entry);
    ch2.PushRequest(entry);
  }
  sim.Run();
  EXPECT_EQ(e1.calls, 5);
  EXPECT_EQ(e2.calls, 5);
}

}  // namespace
}  // namespace nvmetro::core
