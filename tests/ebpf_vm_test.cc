// Differential tests for the two eBPF execution engines: the legacy
// decode-per-step interpreter (ebpf/interpreter.h) and the pre-decoded
// VM (ebpf/vm.h). The contract pinned here is bit-identity: for any
// program and input, both engines must produce the same r0, the same
// status (including the exact diagnostic string), the same executed
// instruction count and the same live map-region count. The suite also
// pins the interpreter correctness fixes that ride along with the
// resubmission work (DESIGN.md §15): bounded region growth under
// looping lookups, per-call helper-argument validation, the runtime
// read-only ctx table, and the verifier's read-only data region.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ebpf/assembler.h"
#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "ebpf/interpreter.h"
#include "ebpf/map.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"

namespace nvmetro::ebpf {
namespace {

/// Same test context layout as ebpf_test.cc: 32 bytes, first 24 read-
/// only, last 8 writable, plus an 8-byte data-pointer field for the
/// read-only data region tests.
struct TestCtx {
  u64 a;     // ro
  u64 b;     // ro
  u64 c;     // ro
  u64 out;   // rw
  u64 data;  // ro: host pointer to the attached data region
};

CtxDescriptor TestCtxDesc() {
  CtxDescriptor d;
  d.size = sizeof(TestCtx);
  d.fields = {
      {0, 8, false, "a"},    {8, 8, false, "b"},  {16, 8, false, "c"},
      {24, 8, true, "out"},  {32, 8, false, "data"},
  };
  d.data_ptr_offset = 32;
  d.data_region_size = 4096;
  return d;
}

struct EngineResults {
  Interpreter::RunResult legacy;
  Interpreter::RunResult decoded;
  TestCtx legacy_ctx;
  TestCtx decoded_ctx;
};

struct VmFixture : ::testing::Test {
  CtxDescriptor desc = TestCtxDesc();

  /// Runs `prog` through both engines with identical inputs (each on
  /// its own copy of the ctx so engine-order cannot leak state) and
  /// EXPECTs every observable to match.
  EngineResults RunBoth(const Program& prog, TestCtx ctx = {},
                        const HelperRegistry& helpers =
                            HelperRegistry::Default(),
                        bool with_desc = false, const void* data = nullptr,
                        u32 data_len = 0, u64 max_insns = 1'000'000) {
    EngineResults out;
    out.legacy_ctx = ctx;
    out.decoded_ctx = ctx;

    Interpreter interp(helpers, Interpreter::Options{max_insns});
    interp.env().ktime_ns = [] { return 12345ull; };
    RunParams lp;
    lp.ctx = &out.legacy_ctx;
    lp.ctx_size = sizeof(TestCtx);
    lp.ctx_desc = with_desc ? &desc : nullptr;
    lp.data = data;
    lp.data_len = data_len;
    out.legacy = interp.Run(prog, lp);

    DecodedProgram dp = DecodedProgram::Decode(prog, helpers);
    DecodedVm dvm(DecodedVm::Options{max_insns});
    dvm.env().ktime_ns = [] { return 12345ull; };
    RunParams dpar = lp;
    dpar.ctx = &out.decoded_ctx;
    out.decoded = dvm.Run(dp, dpar);

    EXPECT_EQ(out.legacy.r0, out.decoded.r0);
    EXPECT_EQ(out.legacy.status.ok(), out.decoded.status.ok())
        << "legacy: " << out.legacy.status.ToString()
        << "\ndecoded: " << out.decoded.status.ToString();
    EXPECT_EQ(out.legacy.status.ToString(), out.decoded.status.ToString());
    EXPECT_EQ(out.legacy.insns, out.decoded.insns);
    EXPECT_EQ(out.legacy.map_regions, out.decoded.map_regions);
    EXPECT_EQ(std::memcmp(&out.legacy_ctx, &out.decoded_ctx, sizeof(TestCtx)),
              0)
        << "engines diverged on ctx side effects";
    return out;
  }

  EngineResults RunBothAsm(const std::string& text, TestCtx ctx = {},
                           std::vector<std::shared_ptr<Map>> maps = {}) {
    auto prog = Assemble(text, std::move(maps));
    EXPECT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    if (!prog.ok()) return {};
    return RunBoth(*prog, ctx);
  }
};

// --- ALU32 / jump edge-case conformance ---------------------------------------

struct EdgeCase {
  const char* name;
  const char* text;
  u64 expect_r0;
};

// Printed by name: gtest's default would print the pointers, which move
// with ASLR, into the test listing.
void PrintTo(const EdgeCase& c, std::ostream* os) { *os << c.name; }

class EdgeCaseTest : public VmFixture,
                     public ::testing::WithParamInterface<EdgeCase> {};

TEST_P(EdgeCaseTest, BitIdenticalAndCorrect) {
  const EdgeCase& c = GetParam();
  auto r = RunBothAsm(c.text);
  ASSERT_TRUE(r.legacy.status.ok()) << c.name << ": "
                                    << r.legacy.status.ToString();
  EXPECT_EQ(r.legacy.r0, c.expect_r0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, EdgeCaseTest,
    ::testing::Values(
        // Register-form shifts mask the count to the operand width.
        EdgeCase{"lsh64_masked", "mov r0, 1\nmov r2, 65\nlsh r0, r2\nexit\n",
                 2},
        EdgeCase{"rsh64_masked",
                 "lddw r0, 0x8000000000000000\nmov r2, 127\nrsh r0, r2\nexit\n",
                 1},
        EdgeCase{"lsh32_masked", "mov r0, 1\nmov r2, 33\nlsh32 r0, r2\nexit\n",
                 2},
        EdgeCase{"rsh32_masked",
                 "lddw r0, 0x80000000\nmov r2, 63\nrsh32 r0, r2\nexit\n", 1},
        // Signed ARSH: 64-bit propagates bit 63, 32-bit propagates bit
        // 31 of the truncated value and zero-extends the result.
        EdgeCase{"arsh64_negative",
                 "lddw r0, 0xFFFFFFFFFFFFFF00\nmov r2, 4\narsh r0, r2\nexit\n",
                 0xFFFFFFFFFFFFFFF0ull},
        EdgeCase{"arsh32_negative",
                 "lddw r0, 0x00000000FFFFFF00\nmov r2, 4\narsh32 r0, r2\n"
                 "exit\n",
                 0xFFFFFFF0ull},
        EdgeCase{"arsh32_positive_top_clear",
                 "lddw r0, 0xFFFFFFFF7FFFFF00\nmov r2, 8\narsh32 r0, r2\n"
                 "exit\n",
                 0x007FFFFFull},
        // Division and modulo by a zero register: div yields 0, mod
        // leaves dst unchanged — in both widths.
        EdgeCase{"div64_by_zero", "mov r0, 100\nmov r2, 0\ndiv r0, r2\nexit\n",
                 0},
        EdgeCase{"mod64_by_zero", "mov r0, 100\nmov r2, 0\nmod r0, r2\nexit\n",
                 100},
        EdgeCase{"div32_by_zero",
                 "mov r0, 100\nmov r2, 0\ndiv32 r0, r2\nexit\n", 0},
        EdgeCase{"mod32_by_zero",
                 "lddw r0, 0x1F000000FF\nmov r2, 0\nmod32 r0, r2\nexit\n",
                 0xFFull},  // 32-bit mod masks dst even when keeping it
        // ALU32 immediates are sign-extended then masked.
        EdgeCase{"add32_negative_imm", "mov r0, 1\nadd32 r0, -2\nexit\n",
                 0xFFFFFFFFull},
        EdgeCase{"mov32_zero_extends",
                 "lddw r2, 0xAABBCCDD11223344\nmov32 r0, r2\nexit\n",
                 0x11223344ull},
        EdgeCase{"neg32_wraps", "mov r0, 0\nneg32 r0\nexit\n", 0},
        EdgeCase{"neg64_min",
                 "lddw r0, 0x8000000000000000\nneg r0\nexit\n",
                 0x8000000000000000ull},
        // Unsigned vs signed jump comparisons at the sign boundary.
        EdgeCase{"jgt_unsigned_minus_one",
                 "lddw r2, 0xFFFFFFFFFFFFFFFF\njgt r2, 1, yes\nmov r0, 0\n"
                 "exit\nyes: mov r0, 1\nexit\n",
                 1},
        EdgeCase{"jsgt_signed_minus_one",
                 "lddw r2, 0xFFFFFFFFFFFFFFFF\njsgt r2, 1, yes\nmov r0, 0\n"
                 "exit\nyes: mov r0, 1\nexit\n",
                 0},
        EdgeCase{"jslt_signed_min",
                 "lddw r2, 0x8000000000000000\njslt r2, 0, yes\nmov r0, 0\n"
                 "exit\nyes: mov r0, 1\nexit\n",
                 1},
        EdgeCase{"jset_register_form",
                 "mov r2, 6\nmov r3, 2\njset r2, r3, yes\nmov r0, 0\nexit\n"
                 "yes: mov r0, 1\nexit\n",
                 1}),
    [](const ::testing::TestParamInfo<EdgeCase>& p) { return p.param.name; });

// --- LD_IMM64 decoding --------------------------------------------------------

TEST_F(VmFixture, LdImm64FullWidthValue) {
  auto r = RunBothAsm("lddw r0, 0x1122334455667788\nexit\n");
  EXPECT_EQ(r.legacy.r0, 0x1122334455667788ull);
}

TEST_F(VmFixture, LdImm64LowSlotTruncatesToU32) {
  // The lo slot contributes only its 32 imm bits; hand-build the pair
  // with a polluted hi slot to pin the (lo & 0xFFFFFFFF) | (hi << 32)
  // composition in both engines.
  std::vector<Insn> insns = {
      LdImm64Lo(0, 0, 0xDEADBEEFCAFEF00Dull),
      LdImm64Hi(0xDEADBEEFCAFEF00Dull),
      Exit(),
  };
  Program prog(std::move(insns), {});
  auto r = RunBoth(prog);
  EXPECT_EQ(r.legacy.r0, 0xDEADBEEFCAFEF00Dull);
}

TEST_F(VmFixture, TruncatedLdImm64IsAnError) {
  std::vector<Insn> insns = {
      MovImm(0, 0),
      LdImm64Lo(2, 0, 7),  // hi slot missing: program ends here
  };
  Program prog(std::move(insns), {});
  auto r = RunBoth(prog);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("truncated LD_IMM64"),
            std::string::npos);
}

TEST_F(VmFixture, MapIndexOutOfBoundsIsAnError) {
  auto amap = std::make_shared<ArrayMap>(8, 4);
  std::vector<Insn> insns = {
      LdImm64Lo(1, kPseudoMapIdx, 3),  // only map 0 exists
      LdImm64Hi(0),
      MovImm(0, 0),
      Exit(),
  };
  Program prog(std::move(insns), {amap});
  auto r = RunBoth(prog);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("bad map index"),
            std::string::npos);
}

TEST_F(VmFixture, JumpIntoLdImm64HiSlotIsAnError) {
  // The hi half of a LD_IMM64 is not independently executable; a rogue
  // jump into it must produce the same diagnostic from both engines.
  std::vector<Insn> insns = {
      JmpImm(kJmpJeq, 0, 0, 1),  // jump over the lo slot into the hi slot
      LdImm64Lo(0, 0, 7),
      LdImm64Hi(7),
      Exit(),
  };
  insns[0].regs = 0;  // r0 vs 0 — taken
  Program prog(std::move(insns), {});
  auto r = RunBoth(prog);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("bad class"), std::string::npos);
}

// --- Randomized differential (straight-line ALU + jumps) ----------------------

TEST_F(VmFixture, RandomProgramsAreBitIdentical) {
  Rng rng(20260808);
  const u8 kAluOps[] = {kAluAdd, kAluSub, kAluMul, kAluDiv, kAluMod,
                        kAluOr,  kAluAnd, kAluXor, kAluLsh, kAluRsh,
                        kAluArsh, kAluMov, kAluNeg};
  const u8 kJmpOps[] = {kJmpJeq,  kJmpJne,  kJmpJgt,  kJmpJge,
                        kJmpJlt,  kJmpJle,  kJmpJset, kJmpJsgt,
                        kJmpJsge, kJmpJslt, kJmpJsle};
  for (int iter = 0; iter < 500; iter++) {
    std::vector<Insn> insns;
    for (u8 reg = 0; reg < 6; reg++) {
      u64 seed = rng.Next();
      insns.push_back(LdImm64Lo(reg, 0, seed));
      insns.push_back(LdImm64Hi(seed));
    }
    u32 body = 1 + static_cast<u32>(rng.NextBounded(24));
    for (u32 i = 0; i < body; i++) {
      u8 dst = static_cast<u8>(rng.NextBounded(6));
      u8 src = static_cast<u8>(rng.NextBounded(6));
      bool is64 = rng.NextBool(0.5);
      if (rng.NextBounded(4) == 0) {
        // Forward jump over the next few instructions (possibly to the
        // exit padding below).
        insns.push_back(JmpImm(kJmpOps[rng.NextBounded(sizeof(kJmpOps))],
                               dst, static_cast<i32>(rng.Next()),
                               static_cast<i16>(rng.NextBounded(4))));
      } else if (rng.NextBool(0.5)) {
        insns.push_back(
            AluReg(kAluOps[rng.NextBounded(sizeof(kAluOps))], dst, src,
                   is64));
      } else {
        insns.push_back(AluImm(kAluOps[rng.NextBounded(sizeof(kAluOps))],
                               dst, static_cast<i32>(rng.Next()), is64));
      }
    }
    // Enough exit padding that every forward jump lands on an exit.
    for (int i = 0; i < 4; i++) insns.push_back(Exit());
    Program prog(std::move(insns), {});
    RunBoth(prog);  // EXPECTs bit-identity internally
  }
}

// --- Region growth under looping lookups (satellite fix) ----------------------

TEST_F(VmFixture, LoopingLookupReusesItsRegionSlot) {
  // Unverified program (the verifier rejects backward jumps); the
  // runtime must bound the region list by call *sites*, not calls:
  // 64 executions of one lookup site may leave exactly one region.
  auto amap = std::make_shared<ArrayMap>(8, 4);
  const char* text =
      "mov r6, 64\n"
      "mov r2, 0\n"
      "stxw [r10-4], r2\n"
      "loop:\n"
      "lddw r1, map 0\n"
      "mov r2, r10\n"
      "add r2, -4\n"
      "call map_lookup_elem\n"
      "sub r6, 1\n"
      "jne r6, 0, loop\n"
      "mov r0, 0\n"
      "exit\n";
  auto prog = Assemble(text, {amap});
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto r = RunBoth(*prog);
  ASSERT_TRUE(r.legacy.status.ok()) << r.legacy.status.ToString();
  EXPECT_EQ(r.legacy.map_regions, 1u);
  EXPECT_EQ(r.decoded.map_regions, 1u);
}

TEST_F(VmFixture, DistinctCallSitesGetDistinctRegions) {
  auto amap = std::make_shared<ArrayMap>(8, 4);
  const char* text =
      "mov r2, 0\n"
      "stxw [r10-4], r2\n"
      "lddw r1, map 0\n"
      "mov r2, r10\n"
      "add r2, -4\n"
      "call map_lookup_elem\n"
      "lddw r1, map 0\n"
      "mov r2, r10\n"
      "add r2, -4\n"
      "call map_lookup_elem\n"
      "mov r0, 0\n"
      "exit\n";
  auto prog = Assemble(text, {amap});
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto r = RunBoth(*prog);
  ASSERT_TRUE(r.legacy.status.ok());
  EXPECT_EQ(r.legacy.map_regions, 2u);
}

// --- Per-call helper argument validation (satellite fix) ----------------------

HelperRegistry RegistryWithKeyFirstHelper() {
  HelperRegistry reg;
  for (u32 id : {kHelperMapLookup, kHelperMapUpdate, kHelperMapDelete,
                 kHelperKtimeGetNs, kHelperTrace, kHelperGetPrandomU32}) {
    reg.Register(*HelperRegistry::Default().Find(id));
  }
  // Pathological signature: the key pointer precedes the map that sizes
  // it. No shipped helper looks like this; it exists to pin the
  // validation order both engines must apply per call.
  reg.Register(HelperSpec{
      100, "key_first", RetType::kInteger,
      {ArgType::kStackPtrKey, ArgType::kMapPtr},
      [](HelperEnv&, u64, u64, u64, u64, u64) { return 0ull; }});
  return reg;
}

TEST_F(VmFixture, KeyArgumentBeforeMapArgumentRejected) {
  HelperRegistry reg = RegistryWithKeyFirstHelper();
  auto amap = std::make_shared<ArrayMap>(8, 4);
  std::vector<Insn> insns = {
      MovImm(2, 0),
      Stx(kSizeW, 10, 2, -4),           // init key bytes
      MovReg(1, 10),
      AluImm(kAluAdd, 1, -4),           // r1 = stack key ptr
      LdImm64Lo(2, kPseudoMapIdx, 0),   // r2 = map
      LdImm64Hi(0),
      Call(100),
      MovImm(0, 0),
      Exit(),
  };
  Program prog(std::move(insns), {amap});
  auto r = RunBoth(prog, {}, reg);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find(
                "key/value argument before map argument"),
            std::string::npos)
      << r.legacy.status.ToString();
}

TEST_F(VmFixture, MapScopeDoesNotLeakAcrossCalls) {
  // A valid lookup first, then a key_first call: if the first call's
  // map leaked into the second call's scope, the stale map would size
  // the key and the call would pass. It must still fail.
  HelperRegistry reg = RegistryWithKeyFirstHelper();
  auto amap = std::make_shared<ArrayMap>(8, 4);
  std::vector<Insn> insns = {
      MovImm(2, 0),
      Stx(kSizeW, 10, 2, -4),
      LdImm64Lo(1, kPseudoMapIdx, 0),
      LdImm64Hi(0),
      MovReg(2, 10),
      AluImm(kAluAdd, 2, -4),
      Call(kHelperMapLookup),           // scopes amap to THIS call only
      MovImm(2, 0),
      Stx(kSizeW, 10, 2, -4),
      MovReg(1, 10),
      AluImm(kAluAdd, 1, -4),
      LdImm64Lo(2, kPseudoMapIdx, 0),
      LdImm64Hi(0),
      Call(100),
      MovImm(0, 0),
      Exit(),
  };
  Program prog(std::move(insns), {amap});
  auto r = RunBoth(prog, {}, reg);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find(
                "key/value argument before map argument"),
            std::string::npos)
      << r.legacy.status.ToString();
}

TEST_F(VmFixture, NonMapValueAsMapArgumentRejected) {
  auto amap = std::make_shared<ArrayMap>(8, 4);
  std::vector<Insn> insns = {
      MovImm(2, 0),
      Stx(kSizeW, 10, 2, -4),
      MovImm(1, 1234),                  // not a map reference
      MovReg(2, 10),
      AluImm(kAluAdd, 2, -4),
      Call(kHelperMapLookup),
      MovImm(0, 0),
      Exit(),
  };
  Program prog(std::move(insns), {amap});
  auto r = RunBoth(prog);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("bad map argument"),
            std::string::npos);
}

// --- Runtime read-only ctx table (satellite fix) ------------------------------

TEST_F(VmFixture, RogueStoreToReadOnlyCtxFieldBlocked) {
  // Hand-assembled, never verified: STX into ctx field `a` (read-only).
  // With the ctx descriptor installed, both engines must refuse and the
  // field must be unchanged.
  std::vector<Insn> insns = {
      MovImm(2, 99),
      Stx(kSizeDw, 1, 2, 0),  // [r1+0] = 99 — rogue
      MovImm(0, 0),
      Exit(),
  };
  Program prog(std::move(insns), {});
  TestCtx ctx{7, 0, 0, 0, 0};
  auto r = RunBoth(prog, ctx, HelperRegistry::Default(), /*with_desc=*/true);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("store to read-only ctx field"),
            std::string::npos)
      << r.legacy.status.ToString();
  EXPECT_EQ(r.legacy_ctx.a, 7u);
  EXPECT_EQ(r.decoded_ctx.a, 7u);
}

TEST_F(VmFixture, StoreToWritableCtxFieldAllowed) {
  std::vector<Insn> insns = {
      MovImm(2, 99),
      Stx(kSizeDw, 1, 2, 24),  // `out` is writable
      MovImm(0, 0),
      Exit(),
  };
  Program prog(std::move(insns), {});
  auto r = RunBoth(prog, {}, HelperRegistry::Default(), /*with_desc=*/true);
  ASSERT_TRUE(r.legacy.status.ok()) << r.legacy.status.ToString();
  EXPECT_EQ(r.legacy_ctx.out, 99u);
  EXPECT_EQ(r.decoded_ctx.out, 99u);
}

TEST_F(VmFixture, StImmediateHitsTheSameCtxTable) {
  // The ST (immediate) form goes through the same enforcement.
  std::vector<Insn> insns = {
      StImm(kSizeDw, 1, 8, 1),  // ctx field `b` is read-only
      MovImm(0, 0),
      Exit(),
  };
  Program prog(std::move(insns), {});
  auto r = RunBoth(prog, {}, HelperRegistry::Default(), /*with_desc=*/true);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("store to read-only ctx field"),
            std::string::npos);
}

// --- Read-only data region at runtime -----------------------------------------

TEST_F(VmFixture, DataRegionReadableButNotWritable) {
  alignas(8) u8 page[64] = {};
  u64 magic = 0x00C0FFEE;
  std::memcpy(page, &magic, 8);
  TestCtx ctx{};
  ctx.data = reinterpret_cast<u64>(page);

  // Read through the data pointer: fine in both engines.
  {
    std::vector<Insn> insns = {
        Ldx(kSizeDw, 2, 1, 32),  // r2 = ctx->data
        Ldx(kSizeDw, 0, 2, 0),   // r0 = *data
        Exit(),
    };
    Program prog(std::move(insns), {});
    auto r = RunBoth(prog, ctx, HelperRegistry::Default(), /*with_desc=*/true,
                     page, sizeof(page));
    ASSERT_TRUE(r.legacy.status.ok()) << r.legacy.status.ToString();
    EXPECT_EQ(r.legacy.r0, magic);
  }
  // Store through it: refused with the same message.
  {
    std::vector<Insn> insns = {
        Ldx(kSizeDw, 2, 1, 32),
        MovImm(3, 1),
        Stx(kSizeDw, 2, 3, 0),
        MovImm(0, 0),
        Exit(),
    };
    Program prog(std::move(insns), {});
    auto r = RunBoth(prog, ctx, HelperRegistry::Default(), /*with_desc=*/true,
                     page, sizeof(page));
    EXPECT_FALSE(r.legacy.status.ok());
    EXPECT_NE(r.legacy.status.ToString().find("store to read-only region"),
              std::string::npos)
        << r.legacy.status.ToString();
    EXPECT_EQ(page[0], 0xEE);  // unmodified
  }
  // Read past the attached length: invalid load in both engines.
  {
    std::vector<Insn> insns = {
        Ldx(kSizeDw, 2, 1, 32),
        Ldx(kSizeDw, 0, 2, 64),  // one past the end
        Exit(),
    };
    Program prog(std::move(insns), {});
    auto r = RunBoth(prog, ctx, HelperRegistry::Default(), /*with_desc=*/true,
                     page, sizeof(page));
    EXPECT_FALSE(r.legacy.status.ok());
    EXPECT_NE(r.legacy.status.ToString().find("invalid load addr"),
              std::string::npos);
  }
}

// --- Budgets and diagnostics --------------------------------------------------

TEST_F(VmFixture, InstructionBudgetBitIdentical) {
  const char* text =
      "mov r0, 0\n"
      "loop:\n"
      "add r0, 1\n"
      "ja loop\n";
  auto prog = Assemble(text);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto r = RunBoth(*prog, {}, HelperRegistry::Default(), false, nullptr, 0,
                   /*max_insns=*/100);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_EQ(r.legacy.insns, r.decoded.insns);
}

TEST_F(VmFixture, BadRegisterDiagnosticsMatch) {
  std::vector<Insn> insns = {MovImm(0, 0), Exit()};
  insns[0].regs = 0x0D;  // dst = 13: out of range
  Program prog(std::move(insns), {});
  auto r = RunBoth(prog);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("bad register"),
            std::string::npos);
}

TEST_F(VmFixture, UnknownHelperDiagnosticsMatch) {
  std::vector<Insn> insns = {Call(999), MovImm(0, 0), Exit()};
  Program prog(std::move(insns), {});
  auto r = RunBoth(prog);
  EXPECT_FALSE(r.legacy.status.ok());
  EXPECT_NE(r.legacy.status.ToString().find("bad helper"), std::string::npos);
}

TEST_F(VmFixture, HelpersScrubCallerSavedRegistersIdentically) {
  // r1-r5 are zeroed after a call in the legacy engine; reading one
  // back afterwards (unverified) must match in the decoded VM.
  const char* text =
      "mov r1, 42\n"
      "call ktime_get_ns\n"
      "mov r0, r1\n"
      "exit\n";
  auto prog = Assemble(text);
  ASSERT_TRUE(prog.ok());
  auto r = RunBoth(*prog);
  ASSERT_TRUE(r.legacy.status.ok());
  EXPECT_EQ(r.legacy.r0, 0u);
}

// --- Verifier: read-only data region ------------------------------------------

struct DataVerifierFixture : VmFixture {
  Verifier verifier{desc, HelperRegistry::Default()};

  Status Verify(const std::string& text) {
    auto prog = Assemble(text);
    EXPECT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    if (!prog.ok()) return prog.status();
    return verifier.Verify(*prog);
  }
};

TEST_F(DataVerifierFixture, NullCheckedBoundedReadAccepted) {
  Status s = Verify(
      "ldxdw r2, [r1+32]\n"
      "jne r2, 0, have\n"
      "mov r0, 0\nexit\n"
      "have:\n"
      "ldxdw r0, [r2+4088]\n"  // last in-bounds dword of the 4096 region
      "exit\n");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(DataVerifierFixture, UncheckedDereferenceRejected) {
  Status s = Verify(
      "ldxdw r2, [r1+32]\n"
      "ldxdw r0, [r2+0]\n"
      "exit\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("possibly-null"), std::string::npos)
      << s.ToString();
}

TEST_F(DataVerifierFixture, OutOfBoundsReadRejected) {
  Status s = Verify(
      "ldxdw r2, [r1+32]\n"
      "jne r2, 0, have\n"
      "mov r0, 0\nexit\n"
      "have:\n"
      "ldxdw r0, [r2+4089]\n"  // crosses the 4096 boundary
      "exit\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("out of bounds"), std::string::npos)
      << s.ToString();
}

TEST_F(DataVerifierFixture, StoreToDataRegionRejected) {
  Status s = Verify(
      "ldxdw r2, [r1+32]\n"
      "jne r2, 0, have\n"
      "mov r0, 0\nexit\n"
      "have:\n"
      "mov r3, 1\n"
      "stxdw [r2+0], r3\n"
      "mov r0, 0\nexit\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("read-only data region"), std::string::npos)
      << s.ToString();
}

TEST_F(DataVerifierFixture, PointerArithmeticStaysBoundsChecked) {
  Status s = Verify(
      "ldxdw r2, [r1+32]\n"
      "jne r2, 0, have\n"
      "mov r0, 0\nexit\n"
      "have:\n"
      "add r2, 4000\n"
      "ldxdw r0, [r2+96]\n"  // 4000 + 96 + 8 = 4104 > 4096
      "exit\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("out of bounds"), std::string::npos)
      << s.ToString();
}

// --- Fuzz: verified programs run identically ----------------------------------

TEST_F(VmFixture, FuzzVerifiedProgramsBitIdentical) {
  Verifier verifier{desc, HelperRegistry::Default()};
  Rng rng(777);
  auto amap = std::make_shared<ArrayMap>(8, 4);
  int accepted = 0;
  for (int iter = 0; iter < 2000; iter++) {
    u32 len = 1 + static_cast<u32>(rng.NextBounded(20));
    std::vector<Insn> insns;
    u32 init = static_cast<u32>(rng.NextBounded(6));
    for (u32 r = 2; r < 2 + init; r++) {
      insns.push_back(MovImm(static_cast<u8>(r),
                             static_cast<i32>(rng.NextBounded(128))));
    }
    static const u8 kAlu[] = {kAluAdd, kAluSub, kAluMul, kAluDiv,
                              kAluOr,  kAluAnd, kAluLsh, kAluRsh,
                              kAluMod, kAluXor, kAluMov, kAluArsh};
    static const u8 kJmp[] = {kJmpJeq, kJmpJne, kJmpJgt, kJmpJge,
                              kJmpJlt, kJmpJle, kJmpJset};
    for (u32 i = 0; i < len; i++) {
      u8 dst = static_cast<u8>(rng.NextBounded(11));
      u8 src = static_cast<u8>(rng.NextBounded(11));
      i16 off = static_cast<i16>(static_cast<i64>(rng.NextBounded(80)) - 40);
      i32 imm = static_cast<i32>(static_cast<i64>(rng.NextBounded(64)) - 8);
      u8 size = static_cast<u8>(rng.NextBounded(4) << 3);
      switch (rng.NextBounded(8)) {
        case 0:
          insns.push_back(AluImm(kAlu[rng.NextBounded(12)], dst, imm,
                                 rng.NextBool(0.5)));
          break;
        case 1:
          insns.push_back(AluReg(kAlu[rng.NextBounded(12)], dst, src,
                                 rng.NextBool(0.5)));
          break;
        case 2:
          insns.push_back(Ldx(size, dst, src, off));
          break;
        case 3:
          insns.push_back(Stx(size, dst, src, off));
          break;
        case 4:
          insns.push_back(StImm(size, dst, off, imm));
          break;
        case 5:
          insns.push_back(JmpImm(kJmp[rng.NextBounded(7)], dst, imm,
                                 static_cast<i16>(rng.NextBounded(6))));
          break;
        case 6:
          insns.push_back(MovReg(dst, src));
          break;
        case 7:
          insns.push_back(Call(static_cast<i32>(rng.NextBounded(10))));
          break;
      }
    }
    insns.push_back(MovImm(0, 0));
    insns.push_back(Exit());
    Program prog(std::move(insns), {amap});
    if (!verifier.Verify(prog).ok()) continue;
    accepted++;
    TestCtx ctx{rng.Next(), rng.Next(), rng.Next(), 0, 0};
    auto r = RunBoth(prog, ctx);
    EXPECT_TRUE(r.legacy.status.ok())
        << "iteration " << iter << ": " << r.legacy.status.ToString();
  }
  EXPECT_GT(accepted, 10);
}

}  // namespace
}  // namespace nvmetro::ebpf
