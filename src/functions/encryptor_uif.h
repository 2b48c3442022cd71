// Transparent disk-encryption UIFs (paper §IV-A).
//
// EncryptorUif decrypts device data in place after reads and encrypts
// guest data into a temporary buffer on writes, writing the ciphertext to
// disk itself with io_uring (Listing 2). The on-disk format is XTS-AES
// with plain64 sector tweaks over guest-relative sectors — byte-identical
// to our dm-crypt target, so disks are interchangeable between the two
// (tested both directions).
//
// SgxEncryptorUif keeps the key inside a (simulated) SGX enclave and uses
// switchless calls serviced by a dedicated enclave worker thread: same
// classifier, ~same data path, different cost structure ("1 worker + 1
// SGX switchless thread", §V-C).
#pragma once

#include <memory>

#include "kblock/bio.h"
#include "sgx/enclave.h"
#include "sim/vcpu.h"
#include "uif/framework.h"
#include "uif/uring.h"

namespace nvmetro::functions {

struct EncryptorParams {
  /// AES-NI XTS throughput on the UIF threads, ns per byte (~2.9 GB/s
  /// per thread: a tight userspace loop over contiguous buffers, vs the
  /// kernel's sector-at-a-time scatterwalk in dm-crypt).
  double aes_ns_per_byte = 0.35;
  /// Per-request bookkeeping cost.
  SimTime per_req_ns = 300;
};

class EncryptorUif : public uif::UifBase {
 public:
  /// `disk` is the backend-namespace block device ciphertext is written
  /// to (namespace-absolute sectors). The XTS key is 32 or 64 bytes.
  static Result<std::unique_ptr<EncryptorUif>> Create(
      kblock::BlockDevice* disk, const u8* xts_key, usize key_len,
      EncryptorParams params = EncryptorParams());

  bool work(const nvme::Sqe& cmd, u32 tag, u16& status) override;

  u64 reads_decrypted() const { return reads_; }
  u64 writes_encrypted() const { return writes_; }

 private:
  EncryptorUif(kblock::BlockDevice* disk, crypto::XtsCipher cipher,
               EncryptorParams params)
      : disk_(disk), cipher_(std::move(cipher)), params_(params) {}

  uif::Uring* EnsureUring();
  SimTime CryptoCost(u64 bytes) const {
    return params_.per_req_ns +
           static_cast<SimTime>(static_cast<double>(bytes) *
                                params_.aes_ns_per_byte);
  }

  kblock::BlockDevice* disk_;
  crypto::XtsCipher cipher_;
  EncryptorParams params_;
  std::unique_ptr<uif::Uring> uring_;
  u64 reads_ = 0;
  u64 writes_ = 0;
};

struct SgxEncryptorParams {
  sgx::EnclaveParams enclave{};
  SimTime per_req_ns = 300;
  /// Use switchless calls (the paper's configuration) instead of regular
  /// ECALLs.
  bool switchless = true;
  /// The switchless worker parks after this long without calls.
  SimTime worker_idle_ns = 25 * kUs;
};

class SgxEncryptorUif : public uif::UifBase {
 public:
  /// The key is sealed into the enclave; this class never holds it.
  static Result<std::unique_ptr<SgxEncryptorUif>> Create(
      sim::Simulator* sim, kblock::BlockDevice* disk, const u8* xts_key,
      usize key_len, SgxEncryptorParams params = SgxEncryptorParams());

  bool work(const nvme::Sqe& cmd, u32 tag, u16& status) override;

  /// Enables the switchless worker. Like Intel's SDK, the worker spins
  /// only while calls keep arriving; after an idle window it parks and
  /// the next call takes the regular-ECALL path (which re-arms it).
  void StartSwitchlessWorker();

  sgx::Enclave* enclave() { return enclave_.get(); }
  /// The dedicated switchless worker thread (CPU accounting).
  sim::VCpu* switchless_cpu() { return switchless_cpu_.get(); }

 private:
  SgxEncryptorUif(sim::Simulator* sim, kblock::BlockDevice* disk,
                  std::unique_ptr<sgx::Enclave> enclave,
                  SgxEncryptorParams params);

  uif::Uring* EnsureUring();

  /// Marks switchless-worker activity; returns true when the worker was
  /// already awake (call can go switchless).
  bool TouchSwitchlessWorker();

  sim::Simulator* sim_;
  kblock::BlockDevice* disk_;
  std::unique_ptr<sgx::Enclave> enclave_;
  SgxEncryptorParams params_;
  std::unique_ptr<sim::VCpu> switchless_cpu_;
  bool switchless_enabled_ = false;
  bool worker_polling_ = false;
  u64 worker_stamp_ = 0;
  std::unique_ptr<uif::Uring> uring_;
};

}  // namespace nvmetro::functions
