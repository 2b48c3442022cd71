#include "functions/encryptor_uif.h"

#include <cstring>

#include "crypto/xts.h"

namespace nvmetro::functions {

using crypto::kXtsSectorSize;

// --- EncryptorUif --------------------------------------------------------------

Result<std::unique_ptr<EncryptorUif>> EncryptorUif::Create(
    kblock::BlockDevice* disk, const u8* xts_key, usize key_len,
    EncryptorParams params) {
  auto cipher = crypto::XtsCipher::Create(xts_key, key_len);
  if (!cipher.ok()) return cipher.status();
  return std::unique_ptr<EncryptorUif>(
      new EncryptorUif(disk, std::move(*cipher), params));
}

uif::Uring* EncryptorUif::EnsureUring() {
  if (!uring_) {
    uring_ = std::make_unique<uif::Uring>(disk_,
                                          function()->host()->poll_cpu());
  }
  return uring_.get();
}

bool EncryptorUif::work(const nvme::Sqe& cmd, u32 tag, u16& status) {
  switch (cmd.opcode) {
    case nvme::kCmdRead: {
      // Ciphertext was read into guest pages by the device; decrypt it
      // in place, tweaked with the guest-relative sector number so the
      // format matches dm-crypt on the same partition.
      uif::GuestData data = function()->Parse(cmd);
      if (!data.ok()) {
        status = nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScDataTransferError);
        return false;
      }
      u64 part = function()->part_first_lba();
      for (uif::GuestData it = data; !it.at_end(); it++) {
        u8* block = *it;
        if (!block) {
          status = nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScDataTransferError);
          return false;
        }
        cipher_.DecryptSector(it.lba() - part, block, block,
                              kXtsSectorSize);
      }
      reads_++;
      // Respond once the (modeled) decryption work has run.
      function()->host()->Async(CryptoCost(data.nbytes()),
                                [fn = function(), tag] {
                                  fn->Respond(tag, nvme::kStatusSuccess);
                                });
      return true;
    }
    case nvme::kCmdWrite: {
      uif::GuestData data = function()->Parse(cmd);
      if (!data.ok()) {
        status = nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScDataTransferError);
        return false;
      }
      // Encrypt plaintext from the guest into a temporary buffer
      // (Listing 2 do_write_async), then write ciphertext with io_uring.
      auto ticket = std::make_shared<uif::IovecTicket>();
      ticket->tag = tag;
      auto buf = std::make_shared<std::vector<u8>>(data.nbytes());
      u64 part = function()->part_first_lba();
      for (uif::GuestData it = data; !it.at_end(); it++) {
        const u8* block = *it;
        if (!block) {
          status = nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScDataTransferError);
          return false;
        }
        cipher_.EncryptSector(it.lba() - part, block,
                              buf->data() + it.block_offset(),
                              kXtsSectorSize);
      }
      writes_++;
      ticket->iovecs.push_back({buf->data(), buf->size()});
      ticket->done = [fn = function(), tag, buf](Status st) {
        fn->Respond(tag, st.ok()
                             ? nvme::kStatusSuccess
                             : nvme::MakeStatus(nvme::kSctMediaError,
                                                nvme::kScWriteFault));
      };
      u64 sector = data.disk_addr();  // namespace-absolute (translated)
      uif::Uring* ring = EnsureUring();
      function()->host()->Async(
          CryptoCost(data.nbytes()),
          [ring, ticket, sector] { ring->QueueWritev(ticket, sector); });
      return true;
    }
    default:
      status = nvme::MakeStatus(nvme::kSctGeneric, nvme::kScInvalidOpcode);
      return false;
  }
}

// --- SgxEncryptorUif ------------------------------------------------------------

SgxEncryptorUif::SgxEncryptorUif(sim::Simulator* sim,
                                 kblock::BlockDevice* disk,
                                 std::unique_ptr<sgx::Enclave> enclave,
                                 SgxEncryptorParams params)
    : sim_(sim), disk_(disk), enclave_(std::move(enclave)), params_(params) {
  if (params_.switchless) {
    switchless_cpu_ =
        std::make_unique<sim::VCpu>(sim_, "sgx.switchless");
  }
}

Result<std::unique_ptr<SgxEncryptorUif>> SgxEncryptorUif::Create(
    sim::Simulator* sim, kblock::BlockDevice* disk, const u8* xts_key,
    usize key_len, SgxEncryptorParams params) {
  auto enclave = sgx::Enclave::Create(xts_key, key_len, params.enclave);
  if (!enclave.ok()) return enclave.status();
  return std::unique_ptr<SgxEncryptorUif>(new SgxEncryptorUif(
      sim, disk, std::move(*enclave), params));
}

void SgxEncryptorUif::StartSwitchlessWorker() {
  switchless_enabled_ = switchless_cpu_ != nullptr;
}

bool SgxEncryptorUif::TouchSwitchlessWorker() {
  if (!switchless_enabled_) return false;
  bool was_awake = worker_polling_;
  if (!worker_polling_) {
    switchless_cpu_->SetPolling(true);
    worker_polling_ = true;
  }
  u64 stamp = ++worker_stamp_;
  sim_->ScheduleAfter(params_.worker_idle_ns, [this, stamp] {
    if (stamp == worker_stamp_ && worker_polling_) {
      switchless_cpu_->SetPolling(false);
      worker_polling_ = false;
    }
  });
  return was_awake;
}

uif::Uring* SgxEncryptorUif::EnsureUring() {
  if (!uring_) {
    uring_ = std::make_unique<uif::Uring>(disk_,
                                          function()->host()->poll_cpu());
  }
  return uring_.get();
}

bool SgxEncryptorUif::work(const nvme::Sqe& cmd, u32 tag, u16& status) {
  // Switchless only when the worker is already spinning; a call arriving
  // at a parked worker takes the regular-ECALL path and re-arms it
  // (Intel SDK switchless fallback semantics).
  const bool sl = params_.switchless && switchless_cpu_ != nullptr &&
                  TouchSwitchlessWorker();
  switch (cmd.opcode) {
    case nvme::kCmdRead: {
      uif::GuestData data = function()->Parse(cmd);
      if (!data.ok()) {
        status = nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScDataTransferError);
        return false;
      }
      u64 part = function()->part_first_lba();
      for (uif::GuestData it = data; !it.at_end(); it++) {
        u8* block = *it;
        if (!block) {
          status = nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScDataTransferError);
          return false;
        }
        // Per-block data transform; the call cost is charged once per
        // request below (real UIFs make one ECALL per command).
        sl ? enclave_->SwitchlessDecrypt(it.lba() - part, block, block,
                                         kXtsSectorSize)
           : enclave_->EcallDecrypt(it.lba() - part, block, block,
                                    kXtsSectorSize);
      }
      sgx::EcallCost total = enclave_->CallCost(sl, data.nbytes());
      auto respond = [fn = function(), tag] {
        fn->Respond(tag, nvme::kStatusSuccess);
      };
      if (sl) {
        // Caller posts the call; the enclave worker does the crypto.
        function()->host()->PickWorker()->Charge(params_.per_req_ns +
                                                 total.caller_ns);
        switchless_cpu_->Run(total.enclave_ns, respond);
      } else {
        function()->host()->Async(
            params_.per_req_ns + total.caller_ns + total.enclave_ns,
            respond);
      }
      return true;
    }
    case nvme::kCmdWrite: {
      uif::GuestData data = function()->Parse(cmd);
      if (!data.ok()) {
        status = nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScDataTransferError);
        return false;
      }
      auto ticket = std::make_shared<uif::IovecTicket>();
      ticket->tag = tag;
      auto buf = std::make_shared<std::vector<u8>>(data.nbytes());
      u64 part = function()->part_first_lba();
      for (uif::GuestData it = data; !it.at_end(); it++) {
        const u8* block = *it;
        if (!block) {
          status = nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScDataTransferError);
          return false;
        }
        sl ? enclave_->SwitchlessEncrypt(it.lba() - part, block,
                                         buf->data() + it.block_offset(),
                                         kXtsSectorSize)
           : enclave_->EcallEncrypt(it.lba() - part, block,
                                    buf->data() + it.block_offset(),
                                    kXtsSectorSize);
      }
      sgx::EcallCost total = enclave_->CallCost(sl, data.nbytes());
      ticket->iovecs.push_back({buf->data(), buf->size()});
      ticket->done = [fn = function(), tag, buf](Status st) {
        fn->Respond(tag, st.ok()
                             ? nvme::kStatusSuccess
                             : nvme::MakeStatus(nvme::kSctMediaError,
                                                nvme::kScWriteFault));
      };
      u64 sector = data.disk_addr();
      uif::Uring* ring = EnsureUring();
      auto submit = [ring, ticket, sector] {
        ring->QueueWritev(ticket, sector);
      };
      if (sl) {
        function()->host()->PickWorker()->Charge(params_.per_req_ns +
                                                 total.caller_ns);
        switchless_cpu_->Run(total.enclave_ns, submit);
      } else {
        function()->host()->Async(
            params_.per_req_ns + total.caller_ns + total.enclave_ns,
            submit);
      }
      return true;
    }
    default:
      status = nvme::MakeStatus(nvme::kSctGeneric, nvme::kScInvalidOpcode);
      return false;
  }
}

}  // namespace nvmetro::functions
