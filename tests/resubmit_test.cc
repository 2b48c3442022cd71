// End-to-end tests for classifier resubmission chains (DESIGN.md §15):
// pushdown point lookups walk the on-disk index entirely below the
// guest, so an H-level lookup is one guest-visible completion plus H-1
// router-internal resubmissions. Also pins the safety rails around the
// feature: the bounded chain depth (a malicious self-referential index
// cannot loop forever), resubmission eligibility (only completion-hook
// reads may chain), and the zero-allocation steady state of a chained
// hot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "core/classifier.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "ebpf/interpreter.h"
#include "ebpf/vm.h"
#include "functions/classifiers.h"
#include "kv/pushdown.h"
#include "kv/sstable.h"
#include "mem/address_space.h"
#include "mem/arena.h"
#include "nvme/prp.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

struct ResubmitFixture : ::testing::Test {
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<NvmetroHost> host;
  VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;
  // One guest buffer + PRP chain reused by every I/O so the steady-state
  // allocation test measures the router, not this harness.
  u64 buf_pages = 0;
  nvme::PrpChain chain;

  void Build(const char* classifier_asm) {
    ssd::ControllerConfig cfg;
    cfg.capacity = 64 * MiB;
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    virt::VmConfig vm_cfg;
    vm_cfg.memory_bytes = 16 * MiB;
    vm = std::make_unique<virt::Vm>(&sim, vm_cfg);
    host = std::make_unique<NvmetroHost>(&sim, phys.get());
    vc = host->CreateController(vm.get(), {.vm_id = 1});
    auto prog = ebpf::Assemble(classifier_asm);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    ASSERT_TRUE(driver->Init(1).ok());
    mem::GuestMemory& gm = vm->memory();
    buf_pages = *gm.AllocPages(2);
    chain = *nvme::BuildPrps(gm, buf_pages, kv::kPushdownBlockBytes);
  }

  /// One 4096-byte guest I/O through the shared buffer; the lookup key
  /// rides in cdw2/cdw3.
  NvmeStatus BlockIo(u8 opcode, u64 lba, u64 key_arg, u8* data) {
    mem::GuestMemory& gm = vm->memory();
    if (opcode == nvme::kCmdWrite) {
      (void)nvme::PrpWrite(gm, chain.prp1, chain.prp2,
                           kv::kPushdownBlockBytes, data);
    }
    nvme::Sqe sqe;
    sqe.opcode = opcode;
    sqe.nsid = 1;
    sqe.prp1 = chain.prp1;
    sqe.prp2 = chain.prp2;
    sqe.cdw2 = static_cast<u32>(key_arg);
    sqe.cdw3 = static_cast<u32>(key_arg >> 32);
    sqe.set_slba(lba);
    sqe.set_nlb0(kv::kPushdownLbasPerBlock - 1);
    NvmeStatus status = 0xFFF;
    driver->Submit(0, sqe, [&](NvmeStatus st, u32) { status = st; });
    sim.Run();
    if (status == nvme::kStatusSuccess && opcode == nvme::kCmdRead && data) {
      (void)nvme::PrpRead(gm, chain.prp1, chain.prp2,
                          kv::kPushdownBlockBytes, data);
    }
    return status;
  }

  void LoadImage(const kv::PushdownIndex& idx) {
    std::vector<u8> block(kv::kPushdownBlockBytes);
    for (u64 b = 0; b < idx.num_blocks(); b++) {
      std::copy(idx.image.begin() + b * kv::kPushdownBlockBytes,
                idx.image.begin() + (b + 1) * kv::kPushdownBlockBytes,
                block.begin());
      ASSERT_EQ(BlockIo(nvme::kCmdWrite,
                        idx.base_lba + b * kv::kPushdownLbasPerBlock, 0,
                        block.data()),
                nvme::kStatusSuccess);
    }
  }
};

TEST_F(ResubmitFixture, TwoLevelLookupIsOneCompletionPlusOneResubmit) {
  Build(functions::PushdownLookupClassifierAsm());
  // 8000 keys -> 63 leaves + 1 root: every lookup crosses one internal
  // block.
  std::vector<std::pair<u64, u64>> kvs;
  for (u64 i = 0; i < 8000; i++) kvs.push_back({i * 7 + 3, i * 31 + 11});
  kv::PushdownIndex idx = kv::BuildPushdownIndex(kvs, 0);
  ASSERT_EQ(idx.levels, 2u);
  LoadImage(idx);

  u64 cpl0 = vc->requests_completed();
  u64 rs0 = vc->resubmissions();
  std::vector<u8> page(kv::kPushdownBlockBytes);
  const u32 kLookups = 16;
  for (u32 i = 0; i < kLookups; i++) {
    u64 key = kvs[(i * 997) % kvs.size()].first;
    ASSERT_EQ(BlockIo(nvme::kCmdRead, idx.root_lba(), key, page.data()),
              nvme::kStatusSuccess);
    // The page the guest received is the *leaf*, not the root it asked
    // for: the chain rewrote the LBA below the guest.
    EXPECT_EQ(kv::PushdownLevel(page.data()), 0u);
    u64 value = 0;
    ASSERT_TRUE(kv::PushdownLeafLookup(page.data(), key, &value)) << key;
    EXPECT_EQ(value, (key - 3) / 7 * 31 + 11);
  }
  // Exactly one guest-visible completion and one resubmission per
  // lookup (plus nothing for the image writes counted before cpl0).
  EXPECT_EQ(vc->requests_completed() - cpl0, kLookups);
  EXPECT_EQ(vc->resubmissions() - rs0, kLookups);
}

TEST_F(ResubmitFixture, ThreeLevelLookupChainsTwice) {
  Build(functions::PushdownLookupClassifierAsm());
  std::vector<std::pair<u64, u64>> kvs;
  for (u64 i = 0; i < 20000; i++) kvs.push_back({i * 3, i});
  kv::PushdownIndex idx = kv::BuildPushdownIndex(kvs, 0);
  ASSERT_EQ(idx.levels, 3u);
  LoadImage(idx);

  u64 rs0 = vc->resubmissions();
  std::vector<u8> page(kv::kPushdownBlockBytes);
  u64 key = kvs[12345].first;
  ASSERT_EQ(BlockIo(nvme::kCmdRead, idx.root_lba(), key, page.data()),
            nvme::kStatusSuccess);
  u64 value = 0;
  ASSERT_TRUE(kv::PushdownLeafLookup(page.data(), key, &value));
  EXPECT_EQ(value, 12345u);
  EXPECT_EQ(vc->resubmissions() - rs0, 2u);
}

TEST_F(ResubmitFixture, MissingKeyStillCompletesOnce) {
  Build(functions::PushdownLookupClassifierAsm());
  std::vector<std::pair<u64, u64>> kvs;
  for (u64 i = 0; i < 8000; i++) kvs.push_back({i * 7 + 3, i});
  kv::PushdownIndex idx = kv::BuildPushdownIndex(kvs, 0);
  LoadImage(idx);

  std::vector<u8> page(kv::kPushdownBlockBytes);
  // Key 4 is absent (keys are 3 mod 7); the chain still lands on the
  // floor leaf and the guest-side exact match reports a miss.
  ASSERT_EQ(BlockIo(nvme::kCmdRead, idx.root_lba(), 4, page.data()),
            nvme::kStatusSuccess);
  u64 value = 0;
  EXPECT_FALSE(kv::PushdownLeafLookup(page.data(), 4, &value));
}

TEST_F(ResubmitFixture, SelfReferentialIndexHitsTheChainDepthBound) {
  Build(functions::PushdownLookupClassifierAsm());
  // A rogue "internal" block whose every child pointer is its own LBA:
  // an unbounded router would resubmit forever. The chain-depth bound
  // (RouterCosts::max_resubmit_depth = 8) must fail the request back to
  // the guest instead.
  std::vector<u8> block(kv::kPushdownBlockBytes, 0);
  u64 word0 = (static_cast<u64>(kv::kPushdownMagic) << 32) | 1;  // level 1
  u64 nkeys = kv::kPushdownFanout;
  memcpy(block.data(), &word0, 8);
  memcpy(block.data() + 8, &nkeys, 8);
  for (u32 i = 0; i < kv::kPushdownFanout; i++) {
    u64 key = i;
    u64 child_lba = 0;  // itself
    memcpy(block.data() + kv::kPushdownHeaderBytes + i * 16, &key, 8);
    memcpy(block.data() + kv::kPushdownHeaderBytes + i * 16 + 8, &child_lba,
           8);
  }
  ASSERT_EQ(BlockIo(nvme::kCmdWrite, 0, 0, block.data()),
            nvme::kStatusSuccess);

  u64 rs0 = vc->resubmissions();
  std::vector<u8> page(kv::kPushdownBlockBytes);
  NvmeStatus st = BlockIo(nvme::kCmdRead, 0, 5, page.data());
  EXPECT_NE(st, nvme::kStatusSuccess);
  EXPECT_NE(st, 0xFFF) << "request hung instead of failing";
  EXPECT_EQ(vc->resubmissions() - rs0, 8u);  // exactly the bound
}

TEST_F(ResubmitFixture, WritesNeverChain) {
  Build(functions::PushdownLookupClassifierAsm());
  // Writes take the translated fast path: no resubmissions, no hooks.
  std::vector<u8> block(kv::kPushdownBlockBytes, 0xAB);
  u64 rs0 = vc->resubmissions();
  ASSERT_EQ(BlockIo(nvme::kCmdWrite, 64, /*key_arg=*/77, block.data()),
            nvme::kStatusSuccess);
  EXPECT_EQ(vc->resubmissions() - rs0, 0u);
}

TEST_F(ResubmitFixture, NonIndexPagesCompleteWithoutChaining) {
  Build(functions::PushdownLookupClassifierAsm());
  // Reading a block that is not a pushdown index block (bad magic) must
  // complete to the guest as a plain read, key argument or not.
  std::vector<u8> block(kv::kPushdownBlockBytes, 0x5C);
  ASSERT_EQ(BlockIo(nvme::kCmdWrite, 32, 0, block.data()),
            nvme::kStatusSuccess);
  u64 rs0 = vc->resubmissions();
  std::vector<u8> page(kv::kPushdownBlockBytes);
  ASSERT_EQ(BlockIo(nvme::kCmdRead, 32, /*key_arg=*/123, page.data()),
            nvme::kStatusSuccess);
  EXPECT_EQ(page[0], 0x5C);
  EXPECT_EQ(vc->resubmissions() - rs0, 0u);
}

TEST_F(ResubmitFixture, SteadyStateChainingDoesNotAllocate) {
  Build(functions::PushdownLookupClassifierAsm());
  std::vector<std::pair<u64, u64>> kvs;
  for (u64 i = 0; i < 8000; i++) kvs.push_back({i * 7 + 3, i});
  kv::PushdownIndex idx = kv::BuildPushdownIndex(kvs, 0);
  ASSERT_EQ(idx.levels, 2u);
  LoadImage(idx);

  std::vector<u8> page(kv::kPushdownBlockBytes);
  // Warm-up: pools and per-queue slots reach their working set.
  for (u32 i = 0; i < 32; i++) {
    ASSERT_EQ(BlockIo(nvme::kCmdRead, idx.root_lba(),
                      kvs[(i * 997) % kvs.size()].first, page.data()),
              nvme::kStatusSuccess);
  }
  // Steady state: every lookup still chains (resubmission verified by
  // the counter) yet the hot path must not allocate.
  u64 rs0 = vc->resubmissions();
  mem::HotPathAllocs::BeginSteadyState();
  for (u32 i = 0; i < 64; i++) {
    ASSERT_EQ(BlockIo(nvme::kCmdRead, idx.root_lba(),
                      kvs[(i * 131) % kvs.size()].first, page.data()),
              nvme::kStatusSuccess);
  }
  mem::HotPathAllocs::EndSteadyState();
  EXPECT_EQ(vc->resubmissions() - rs0, 64u);
  EXPECT_EQ(mem::HotPathAllocs::steady_state_allocs(), 0u)
      << "resubmission hot path allocated in steady state";
}

TEST_F(ResubmitFixture, SsTablePushdownIndexRoutesToTheRightBlock) {
  Build(functions::PushdownLookupClassifierAsm());
  // Index an SSTable's block directory by key prefix and chase it below
  // the guest: the leaf entry names the data block to read next.
  kv::SsTableMeta meta;
  std::map<std::string, kv::Record> records;
  for (int i = 100; i < 500; i++) {
    std::string k = StrFormat("user%d", i);
    records[k] = kv::Record{k, StrFormat("v%d", i), false};
  }
  (void)kv::BuildSsTable(records, 512, 10, &meta);
  ASSERT_GT(meta.num_blocks(), 1u);

  kv::PushdownIndex idx = kv::BuildSsTablePushdownIndex(meta, 0);
  LoadImage(idx);

  std::vector<u8> page(kv::kPushdownBlockBytes);
  for (const char* probe : {"user150", "user300", "user499"}) {
    u64 prefix = kv::PushdownKeyPrefix(probe);
    ASSERT_EQ(BlockIo(nvme::kCmdRead, idx.root_lba(), prefix, page.data()),
              nvme::kStatusSuccess);
    u32 slot = kv::PushdownSearchBlock(page.data(), prefix);
    u64 block_no = kv::PushdownEntryVal(page.data(), slot);
    i64 expect = meta.FindBlock(probe);
    ASSERT_GE(expect, 0);
    EXPECT_EQ(block_no, static_cast<u64>(expect)) << probe;
  }
}

// --- Engine oracle -------------------------------------------------------------

/// The run parameters ClassifierRuntime::Run builds for `ctx`.
ebpf::RunParams Params(ClassifierCtx* ctx) {
  ebpf::RunParams p;
  p.ctx = ctx;
  p.ctx_size = sizeof(*ctx);
  p.ctx_desc = &NvmetroCtxDescriptor();
  p.data = reinterpret_cast<const void*>(ctx->data);
  p.data_len = static_cast<u32>(ctx->data_len);
  return p;
}

TEST(PushdownEngineTest, InterpreterAndDecodedVmAgreeOnEveryIndexPage) {
  // The router runs classifiers on the pre-decoded VM; the interpreter
  // is its oracle. Feed the pushdown classifier every page of a real
  // 3-level index (leaves, internal blocks and the root) as a completion
  // hook sees them, plus the submissions that start a chain, and compare
  // everything the router consumes: verdict, simulated cost, status and
  // the slba/nlb/state the classifier writes back.
  auto prog = functions::PushdownLookupClassifier();
  ASSERT_TRUE(prog.ok());
  ebpf::Interpreter interp;
  ebpf::DecodedProgram decoded = ebpf::DecodedProgram::Decode(*prog);
  ebpf::DecodedVm dvm;

  std::vector<std::pair<u64, u64>> kvs;
  for (u64 i = 0; i < 20000; i++) kvs.push_back({i * 3, i});
  kv::PushdownIndex idx = kv::BuildPushdownIndex(kvs, 64);
  ASSERT_EQ(idx.levels, 3u);

  u32 rewrites = 0;
  for (u64 b = 0; b < idx.num_blocks(); b++) {
    const u8* page = idx.image.data() + b * kv::kPushdownBlockBytes;
    u64 hit = kvs[(b * 131) % kvs.size()].first;
    for (u64 key : {u64{0}, hit, hit + 1, kvs.back().first + 1}) {
      for (Hook hook : {kHookVsq, kHookHcq}) {
        ClassifierCtx in{};
        in.current_hook = hook;
        in.opcode = nvme::kCmdRead;
        in.nsid = 1;
        in.slba = idx.base_lba + b * kv::kPushdownLbasPerBlock;
        in.nlb = kv::kPushdownLbasPerBlock;
        in.part_limit = 1 << 20;
        in.cmd_arg = key;
        if (hook != kHookVsq) {
          in.data = reinterpret_cast<u64>(page);
          in.data_len = kv::kPushdownBlockBytes;
          in.chain_depth = 1;
        }
        ClassifierCtx ci = in, cd = in;
        auto ri = interp.Run(*prog, Params(&ci));
        auto rd = dvm.Run(decoded, Params(&cd));
        std::string where = "block " + std::to_string(b) + " key " +
                            std::to_string(key) + " hook " +
                            std::to_string(hook);
        ASSERT_TRUE(ri.status.ok()) << where << ": " << ri.status.ToString();
        EXPECT_EQ(rd.status.ToString(), ri.status.ToString()) << where;
        EXPECT_EQ(rd.r0, ri.r0) << where;
        EXPECT_EQ(ClassifierCost(rd.insns), ClassifierCost(ri.insns))
            << where;
        EXPECT_EQ(cd.slba, ci.slba) << where;
        EXPECT_EQ(cd.nlb, ci.nlb) << where;
        EXPECT_EQ(cd.state, ci.state) << where;
        if (ci.slba != in.slba) rewrites++;
      }
    }
  }
  // The walk really chained: internal pages rewrote the LBA.
  EXPECT_GT(rewrites, 0u);
}

}  // namespace
}  // namespace nvmetro::core
