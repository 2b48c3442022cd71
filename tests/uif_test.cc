// Tests for the UIF framework in isolation: NSQ/NCQ dispatch, the sync
// and async response contracts, adaptive poller sleep/wake behaviour and
// its CPU accounting, multi-function hosting, guest-data iteration, and
// the io_uring-style write path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/notify.h"
#include "kblock/devices.h"
#include "uif/framework.h"
#include "uif/guest_data.h"
#include "uif/uring.h"
#include "virt/vm.h"

namespace nvmetro::uif {
namespace {

/// Records every command; responds per a scripted policy.
class RecordingUif : public UifBase {
 public:
  enum class Mode { kSyncOk, kSyncError, kAsync, kNever };

  explicit RecordingUif(Mode mode) : mode_(mode) {}

  bool work(const nvme::Sqe& cmd, u32 tag, u16& status) override {
    seen.push_back({cmd, tag});
    switch (mode_) {
      case Mode::kSyncOk:
        status = nvme::kStatusSuccess;
        return false;
      case Mode::kSyncError:
        status = nvme::MakeStatus(nvme::kSctMediaError,
                                  nvme::kScWriteFault);
        return false;
      case Mode::kAsync:
        pending_tags.push_back(tag);
        return true;
      case Mode::kNever:
        return true;
    }
    return false;
  }

  struct Seen {
    nvme::Sqe sqe;
    u32 tag;
  };
  Mode mode_;
  std::vector<Seen> seen;
  std::vector<u32> pending_tags;
};

struct UifFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<virt::Vm> vm;
  core::NotifyChannel channel;
  std::unique_ptr<UifHost> host;

  void Build(RecordingUif* impl, UifHostParams params = {}) {
    vm = std::make_unique<virt::Vm>(
        &sim, virt::VmConfig{.name = "vm", .memory_bytes = 16 * MiB,
                             .vcpus = 1});
    host = std::make_unique<UifHost>(&sim, "test-uif", params);
    host->AddFunction(&channel, vm.get(), impl);
    host->Start();
  }

  /// Acts as the router: pushes one request onto the NSQ.
  void Push(const nvme::Sqe& sqe, u32 tag) {
    core::NotifyEntry e;
    e.sqe = sqe;
    e.tag = tag;
    e.vm_id = 1;
    ASSERT_TRUE(channel.PushRequest(e));
  }

  std::vector<core::NotifyCompletion> DrainCompletions() {
    std::vector<core::NotifyCompletion> out;
    core::NotifyCompletion c;
    while (channel.PopCompletion(&c)) out.push_back(c);
    return out;
  }
};

TEST_F(UifFixture, DispatchesRequestAndRespondsSync) {
  RecordingUif impl(RecordingUif::Mode::kSyncOk);
  Build(&impl);
  nvme::Sqe sqe = nvme::MakeFlush(1);
  sqe.cid = 77;
  Push(sqe, 42);
  sim.Run();
  ASSERT_EQ(impl.seen.size(), 1u);
  EXPECT_EQ(impl.seen[0].tag, 42u);
  EXPECT_EQ(impl.seen[0].sqe.cid, 77);
  auto done = DrainCompletions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 42u);
  EXPECT_EQ(done[0].status, nvme::kStatusSuccess);
}

TEST_F(UifFixture, SyncErrorStatusPropagates) {
  RecordingUif impl(RecordingUif::Mode::kSyncError);
  Build(&impl);
  Push(nvme::MakeFlush(1), 7);
  sim.Run();
  auto done = DrainCompletions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status,
            nvme::MakeStatus(nvme::kSctMediaError, nvme::kScWriteFault));
}

TEST_F(UifFixture, AsyncRespondDeliversLater) {
  RecordingUif impl(RecordingUif::Mode::kAsync);
  Build(&impl);
  Push(nvme::MakeFlush(1), 3);
  Push(nvme::MakeFlush(1), 4);
  sim.Run();
  ASSERT_EQ(impl.pending_tags.size(), 2u);
  EXPECT_TRUE(DrainCompletions().empty()) << "responded before Respond()";
  // Respond out of order; both must arrive with their own tag.
  UifFunction* fn = impl.function();
  fn->Respond(4, nvme::kStatusSuccess);
  fn->Respond(3, nvme::MakeStatus(nvme::kSctGeneric, nvme::kScInternalError));
  sim.Run();
  auto done = DrainCompletions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].tag, 4u);
  EXPECT_EQ(done[0].status, nvme::kStatusSuccess);
  EXPECT_EQ(done[1].tag, 3u);
  EXPECT_EQ(fn->requests(), 2u);
  EXPECT_EQ(fn->responses(), 2u);
}

TEST_F(UifFixture, AdaptiveHostSleepsWhenIdleAndWakes) {
  RecordingUif impl(RecordingUif::Mode::kSyncOk);
  UifHostParams params;
  params.idle_timeout_ns = 40 * kUs;
  Build(&impl, params);
  // Nothing to do: after the idle timeout the poll thread must park.
  sim.RunFor(1 * kMs);
  EXPECT_TRUE(host->sleeping());
  u64 cpu_at_sleep = host->TotalCpuBusyNs();
  sim.RunFor(10 * kMs);
  // Parked = (near) zero CPU burn. Allow a trickle for re-arm events.
  EXPECT_LT(host->TotalCpuBusyNs() - cpu_at_sleep, 100 * kUs);
  // A request must wake it and get served.
  Push(nvme::MakeFlush(1), 1);
  sim.Run();
  EXPECT_EQ(DrainCompletions().size(), 1u);
  EXPECT_EQ(impl.seen.size(), 1u);
}

TEST_F(UifFixture, NonAdaptiveHostSpins) {
  RecordingUif impl(RecordingUif::Mode::kSyncOk);
  UifHostParams params;
  params.adaptive = false;
  Build(&impl, params);
  sim.RunFor(5 * kMs);
  EXPECT_FALSE(host->sleeping());
  // A spinning poll thread accounts (close to) wall time as busy.
  EXPECT_GT(host->poll_cpu()->busy_ns(), 4 * kMs);
}

TEST_F(UifFixture, MultipleFunctionsShareOneHost) {
  RecordingUif impl_a(RecordingUif::Mode::kSyncOk);
  RecordingUif impl_b(RecordingUif::Mode::kSyncOk);
  Build(&impl_a);
  core::NotifyChannel channel_b;
  auto vm_b = std::make_unique<virt::Vm>(
      &sim,
      virt::VmConfig{.name = "vm-b", .memory_bytes = 16 * MiB, .vcpus = 1});
  host->AddFunction(&channel_b, vm_b.get(), &impl_b);

  Push(nvme::MakeFlush(1), 10);
  core::NotifyEntry e;
  e.sqe = nvme::MakeFlush(1);
  e.tag = 20;
  e.vm_id = 2;
  ASSERT_TRUE(channel_b.PushRequest(e));
  sim.Run();

  // Each function saw exactly its own VM's request, and each channel got
  // exactly its own completion back.
  ASSERT_EQ(impl_a.seen.size(), 1u);
  EXPECT_EQ(impl_a.seen[0].tag, 10u);
  ASSERT_EQ(impl_b.seen.size(), 1u);
  EXPECT_EQ(impl_b.seen[0].tag, 20u);
  EXPECT_EQ(DrainCompletions().size(), 1u);
  core::NotifyCompletion c;
  ASSERT_TRUE(channel_b.PopCompletion(&c));
  EXPECT_EQ(c.tag, 20u);
  EXPECT_FALSE(channel_b.PopCompletion(&c));
}

TEST_F(UifFixture, GuestDataIteratesCommandBlocks) {
  RecordingUif impl(RecordingUif::Mode::kSyncOk);
  Build(&impl);
  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(2);  // 8 KiB = 16 x 512B blocks, PRP1+PRP2
  Rng rng(5);
  std::vector<u8> payload(8192);
  rng.Fill(payload.data(), payload.size());
  memcpy(gm.Translate(buf, payload.size()), payload.data(),
         payload.size());

  nvme::Sqe sqe =
      nvme::MakeWrite(1, /*slba=*/1000, /*nblocks=*/16, buf,
                      buf + mem::kPageSize);
  GuestData data(&gm, sqe);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data.nblocks(), 16u);
  EXPECT_EQ(data.nbytes(), 8192u);
  EXPECT_EQ(data.disk_addr(), 1000u);
  u32 count = 0;
  for (; !data.at_end(); data++) {
    EXPECT_EQ(data.lba(), 1000u + count);
    EXPECT_EQ(data.block_offset(), static_cast<u64>(count) * 512);
    // The block's bytes are the guest's, zero-copy.
    EXPECT_EQ(memcmp(*data, payload.data() + count * 512, 512), 0)
        << "block " << count;
    count++;
  }
  EXPECT_EQ(count, 16u);

  std::vector<u8> copied(8192, 0);
  GuestData again(&gm, sqe);
  ASSERT_TRUE(again.CopyOut(copied.data()).ok());
  EXPECT_EQ(copied, payload);
}

TEST_F(UifFixture, UringWritevLandsOnDeviceAndCompletes) {
  RecordingUif impl(RecordingUif::Mode::kSyncOk);
  Build(&impl);
  kblock::RamBlockDevice dev(&sim, 4 * MiB);
  Uring ring(&dev, host->poll_cpu());

  Rng rng(9);
  std::vector<u8> a(1024), b(512);
  rng.Fill(a.data(), a.size());
  rng.Fill(b.data(), b.size());
  auto ticket = std::make_unique<IovecTicket>();
  ticket->tag = 1;
  ticket->iovecs = {{a.data(), a.size()}, {b.data(), b.size()}};
  Status wst = Internal("pending");
  ticket->done = [&](Status st) { wst = st; };
  ring.QueueWritev(std::move(ticket), /*sector=*/8);
  sim.Run();
  ASSERT_TRUE(wst.ok());
  EXPECT_EQ(ring.submitted(), 1u);
  EXPECT_EQ(ring.completed(), 1u);
  // Both iovecs landed contiguously at the sector.
  EXPECT_TRUE(dev.store().Matches(8 * kblock::kSectorSize, a.data(),
                                  a.size()));
  EXPECT_TRUE(dev.store().Matches(8 * kblock::kSectorSize + a.size(),
                                  b.data(), b.size()));

  // Read it back through the ring.
  std::vector<u8> ra(1024), rb(512);
  auto rticket = std::make_unique<IovecTicket>();
  rticket->iovecs = {{ra.data(), ra.size()}, {rb.data(), rb.size()}};
  Status rst = Internal("pending");
  rticket->done = [&](Status st) { rst = st; };
  ring.QueueReadv(std::move(rticket), 8);
  Status fst = Internal("pending");
  ring.QueueFsync([&](Status st) { fst = st; });
  sim.Run();
  ASSERT_TRUE(rst.ok());
  ASSERT_TRUE(fst.ok());
  EXPECT_EQ(ra, a);
  EXPECT_EQ(rb, b);
}

TEST_F(UifFixture, NotifyChannelCapacityBounds) {
  core::NotifyChannel small(8);
  core::NotifyEntry e;
  e.sqe = nvme::MakeFlush(1);
  int pushed = 0;
  for (int i = 0; i < 20; i++) {
    e.tag = i;
    if (small.PushRequest(e)) pushed++;
  }
  EXPECT_LT(pushed, 20);
  EXPECT_GE(pushed, 7);  // ring of 8 holds at least entries-1
  EXPECT_EQ(small.PendingRequests(), static_cast<u32>(pushed));
  core::NotifyEntry out;
  ASSERT_TRUE(small.PopRequest(&out));
  EXPECT_EQ(out.tag, 0u);  // FIFO
  e.tag = 99;
  EXPECT_TRUE(small.PushRequest(e));  // space freed
}

}  // namespace
}  // namespace nvmetro::uif
