// Transparent disk encryption (paper §IV-A): the eBPF classifier routes
// reads device-first-then-UIF and writes UIF-first; the userspace I/O
// function performs XTS-AES with the key isolated in userspace — and the
// resulting disk is bit-compatible with dm-crypt.
//
//   $ ./build/examples/encrypted_disk
#include <cstdio>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "crypto/xts.h"
#include "kblock/dm.h"

using namespace nvmetro;
using baselines::SolutionBundle;
using baselines::SolutionKind;
using baselines::StorageSolution;
using baselines::Testbed;

int main() {
  Testbed tb;
  auto bundle =
      SolutionBundle::Create(&tb, SolutionKind::kNvmetroEncryption);
  if (!bundle) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  StorageSolution* disk = bundle->vm_solution(0);

  // The guest writes secrets; it has no idea the disk is encrypted.
  Rng rng(2024);
  std::vector<u8> secret(4096);
  rng.Fill(secret.data(), secret.size());
  std::snprintf(reinterpret_cast<char*>(secret.data()), 64,
                "TOP SECRET: the cluster root key lives here");

  bool ok = false;
  disk->Submit(0, StorageSolution::Op::kWrite, 0, secret.size(),
               secret.data(), [&](Status st) { ok = st.ok(); });
  tb.sim.Run();
  std::printf("guest write: %s\n", ok ? "ok" : "FAILED");
  bool all_ok = ok;

  // 1. The guest reads its plaintext back normally.
  std::vector<u8> readback(4096, 0);
  disk->Submit(0, StorageSolution::Op::kRead, 0, readback.size(),
               readback.data(), [&](Status st) { ok = st.ok(); });
  tb.sim.Run();
  ok = ok && readback == secret;
  std::printf("guest read round-trip: %s\n",
              ok ? "plaintext intact" : "FAILED");
  all_ok = all_ok && ok;

  // 2. The physical media never sees plaintext.
  bool plaintext_on_media =
      tb.phys->store().Matches(0, secret.data(), secret.size());
  std::printf("plaintext on physical media: %s\n",
              plaintext_on_media ? "YES (BUG!)" : "no (ciphertext only)");
  all_ok = all_ok && !plaintext_on_media;

  // 3. The format is exactly dm-crypt aes-xts-plain64: mount the same
  //    media under the kernel's dm-crypt with the same key and read it.
  sim::VCpu kcryptd(&tb.sim, "kcryptd");
  kblock::NvmeBlockDevice raw(&tb.sim, tb.phys.get(), &tb.dma, 1);
  auto dmc = kblock::DmCrypt::Create(&tb.sim, &raw,
                                     bundle->xts_key().data(),
                                     bundle->xts_key().size(), {&kcryptd});
  std::vector<u8> via_dmcrypt(4096, 0);
  bool dm_ok = false;
  (*dmc)->Submit(kblock::Bio::Read(0, via_dmcrypt.data(),
                                   via_dmcrypt.size(), [&](Status st) {
                                     dm_ok = st.ok();
                                   }));
  tb.sim.Run();
  dm_ok = dm_ok && via_dmcrypt == secret;
  std::printf("dm-crypt cross-mount read: %s\n",
              dm_ok ? "matches the guest's plaintext (formats compatible)"
                    : "FAILED");
  all_ok = all_ok && dm_ok;

  // 4. Show what an attacker with media access sees.
  std::vector<u8> media_bytes(64);
  tb.phys->store().Read(0, media_bytes.data(), media_bytes.size());
  std::printf("first media bytes: ");
  for (int i = 0; i < 16; i++) std::printf("%02x", media_bytes[i]);
  std::printf("...\n");
  return all_ok ? 0 : 1;
}
