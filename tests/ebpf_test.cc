// Tests for the eBPF substrate: assembler, interpreter semantics,
// verifier safety properties, maps, helpers, and a fuzz pass asserting
// that verifier-accepted programs never trip the runtime guards.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ebpf/assembler.h"
#include "ebpf/disasm.h"
#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "ebpf/interpreter.h"
#include "functions/classifiers.h"
#include "ebpf/map.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"

namespace nvmetro::ebpf {
namespace {

/// Test context: 32 bytes, first 24 readable, last 8 writable too.
struct TestCtx {
  u64 a;   // ro
  u64 b;   // ro
  u64 c;   // ro
  u64 out; // rw
};

CtxDescriptor TestCtxDesc() {
  CtxDescriptor d;
  d.size = sizeof(TestCtx);
  d.fields = {
      {0, 8, false, "a"},
      {8, 8, false, "b"},
      {16, 8, false, "c"},
      {24, 8, true, "out"},
      // Narrow views of `a` for size-specific access tests.
      {0, 4, false, "a_lo"},
      {0, 2, false, "a_w"},
      {0, 1, false, "a_b"},
  };
  return d;
}

struct EbpfFixture : ::testing::Test {
  CtxDescriptor desc = TestCtxDesc();
  Verifier verifier{desc, HelperRegistry::Default()};
  Interpreter interp;

  Result<Program> Asm(const std::string& text,
                      std::vector<std::shared_ptr<Map>> maps = {}) {
    return Assemble(text, std::move(maps));
  }

  /// Assemble + verify + run; EXPECTs success at each stage.
  u64 MustRun(const std::string& text, TestCtx ctx = {},
              std::vector<std::shared_ptr<Map>> maps = {}) {
    auto prog = Asm(text, std::move(maps));
    EXPECT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    if (!prog.ok()) return ~0ull;
    Status v = verifier.Verify(*prog);
    EXPECT_TRUE(v.ok()) << v.ToString() << "\n" << text;
    auto res = interp.Run(*prog, &ctx, sizeof(ctx));
    EXPECT_TRUE(res.status.ok()) << res.status.ToString();
    return res.r0;
  }

  /// Assemble must succeed; verify must fail with a message containing
  /// `substr`.
  void MustReject(const std::string& text, const std::string& substr,
                  std::vector<std::shared_ptr<Map>> maps = {}) {
    auto prog = Asm(text, std::move(maps));
    ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    Status v = verifier.Verify(*prog);
    EXPECT_FALSE(v.ok()) << "expected rejection:\n" << text;
    EXPECT_NE(v.ToString().find(substr), std::string::npos)
        << "got: " << v.ToString();
  }
};

// --- Assembler ----------------------------------------------------------------

TEST_F(EbpfFixture, AssemblesMinimalProgram) {
  auto prog = Asm("mov r0, 0\nexit\n");
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->size(), 2u);
  EXPECT_EQ(prog->insns()[1].opcode, kOpExit);
}

TEST_F(EbpfFixture, CommentsAndBlankLinesIgnored) {
  auto prog = Asm("; header\n\n  mov r0, 1 ; trailing\n# hash\nexit\n");
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->size(), 2u);
}

TEST_F(EbpfFixture, RejectsUnknownMnemonic) {
  EXPECT_FALSE(Asm("frobnicate r0\nexit\n").ok());
}

TEST_F(EbpfFixture, RejectsUnknownLabel) {
  EXPECT_FALSE(Asm("ja nowhere\nexit\n").ok());
}

TEST_F(EbpfFixture, RejectsDuplicateLabel) {
  EXPECT_FALSE(Asm("x:\nmov r0, 0\nx:\nexit\n").ok());
}

TEST_F(EbpfFixture, ErrorsIncludeLineNumbers) {
  auto prog = Asm("mov r0, 0\nbogus r1\nexit\n");
  ASSERT_FALSE(prog.ok());
  EXPECT_NE(prog.status().message().find("line 2"), std::string::npos);
}

TEST_F(EbpfFixture, Lddw64BitImmediate) {
  EXPECT_EQ(MustRun("lddw r0, 0x1122334455667788\nexit\n"),
            0x1122334455667788ull);
}

// --- ALU semantics (parameterized) ----------------------------------------------

struct AluCase {
  const char* op;
  u64 a, b;
  u64 expect64;
  u64 expect32;
};

// Printed by value: gtest's default would print the `op` pointer, which
// moves with ASLR, into the test listing.
void PrintTo(const AluCase& c, std::ostream* os) {
  *os << c.op << " " << c.a << " " << c.b;
}

/// Names a case after its op and its index, e.g. `add_0`.
template <typename Case>
std::string OpCaseName(const ::testing::TestParamInfo<Case>& p) {
  return std::string(p.param.op) + "_" + std::to_string(p.index);
}

std::string AluProgText(const AluCase& c, bool is64) {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "lddw r0, %llu\nlddw r2, %llu\n%s%s r0, r2\nexit\n",
           (unsigned long long)c.a, (unsigned long long)c.b, c.op,
           is64 ? "" : "32");
  return buf;
}

class AluSemanticsTest : public EbpfFixture,
                         public ::testing::WithParamInterface<AluCase> {};

TEST_P(AluSemanticsTest, RegisterForm64) {
  const AluCase& c = GetParam();
  std::string text = AluProgText(c, true);
  auto prog = Asm(text);
  ASSERT_TRUE(prog.ok()) << text;
  auto res = interp.Run(*prog, nullptr, 0);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.r0, c.expect64) << c.op;
}

TEST_P(AluSemanticsTest, RegisterForm32) {
  const AluCase& c = GetParam();
  std::string text = AluProgText(c, false);
  auto prog = Asm(text);
  ASSERT_TRUE(prog.ok()) << text;
  auto res = interp.Run(*prog, nullptr, 0);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.r0, c.expect32) << c.op << "32";
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemanticsTest,
    ::testing::Values(
        AluCase{"add", 7, 3, 10, 10},
        AluCase{"add", ~0ull, 1, 0, 0},
        AluCase{"sub", 3, 7, static_cast<u64>(-4), 0xFFFFFFFCu},
        AluCase{"mul", 1ull << 33, 4, 1ull << 35, 0},
        AluCase{"div", 100, 7, 14, 14},
        AluCase{"div", 100, 0, 0, 0},  // div-by-zero yields 0
        AluCase{"mod", 100, 7, 2, 2},
        AluCase{"mod", 100, 0, 100, 100},  // mod-by-zero keeps dst
        AluCase{"or", 0xF0, 0x0F, 0xFF, 0xFF},
        AluCase{"and", 0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull,
                0xFF000000FF000000ull, 0xFF000000ull},
        AluCase{"xor", 0xAAAA, 0xFFFF, 0x5555, 0x5555},
        AluCase{"lsh", 1, 40, 1ull << 40, 1u << 8},  // 32-bit masks shift
        AluCase{"rsh", 1ull << 40, 8, 1ull << 32, 0},
        AluCase{"arsh", static_cast<u64>(-256), 4, static_cast<u64>(-16),
                0xFFFFFFF0u}),
    OpCaseName<AluCase>);

TEST_F(EbpfFixture, NegInstruction) {
  EXPECT_EQ(MustRun("mov r0, 5\nneg r0\nexit\n"), static_cast<u64>(-5));
  auto prog = Asm("mov r0, 5\nneg32 r0\nexit\n");
  ASSERT_TRUE(prog.ok());
  auto res = interp.Run(*prog, nullptr, 0);
  EXPECT_EQ(res.r0, 0xFFFFFFFBull);
}

TEST_F(EbpfFixture, Mov32ZeroExtends) {
  EXPECT_EQ(MustRun("lddw r2, 0xFFFFFFFF11223344\nmov32 r0, r2\nexit\n"),
            0x11223344ull);
}

// --- Jumps ------------------------------------------------------------------

struct JmpCase {
  const char* op;
  u64 a;
  i64 b;
  bool taken;
};

void PrintTo(const JmpCase& c, std::ostream* os) {
  *os << c.op << " " << c.a << " " << c.b;
}

class JmpSemanticsTest : public EbpfFixture,
                         public ::testing::WithParamInterface<JmpCase> {};

TEST_P(JmpSemanticsTest, ImmediateForm) {
  const JmpCase& c = GetParam();
  char buf[256];
  snprintf(buf, sizeof(buf),
           "lddw r2, %llu\n%s r2, %lld, yes\nmov r0, 0\nexit\n"
           "yes: mov r0, 1\nexit\n",
           (unsigned long long)c.a, c.op, (long long)c.b);
  auto prog = Asm(buf);
  ASSERT_TRUE(prog.ok()) << buf;
  auto res = interp.Run(*prog, nullptr, 0);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.r0, c.taken ? 1u : 0u) << buf;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, JmpSemanticsTest,
    ::testing::Values(JmpCase{"jeq", 5, 5, true}, JmpCase{"jeq", 5, 6, false},
                      JmpCase{"jne", 5, 6, true}, JmpCase{"jne", 5, 5, false},
                      JmpCase{"jgt", 6, 5, true}, JmpCase{"jgt", 5, 5, false},
                      JmpCase{"jge", 5, 5, true}, JmpCase{"jge", 4, 5, false},
                      JmpCase{"jlt", 4, 5, true}, JmpCase{"jlt", 5, 5, false},
                      JmpCase{"jle", 5, 5, true}, JmpCase{"jle", 6, 5, false},
                      JmpCase{"jset", 6, 2, true},
                      JmpCase{"jset", 5, 2, false},
                      JmpCase{"jsgt", 0, -1, true},
                      JmpCase{"jslt", static_cast<u64>(-2), -1, true},
                      JmpCase{"jsge", static_cast<u64>(-1), -1, true},
                      JmpCase{"jsle", static_cast<u64>(-1), 0, true}),
    OpCaseName<JmpCase>);

// --- Context access ------------------------------------------------------------

TEST_F(EbpfFixture, ReadsContextFields) {
  TestCtx ctx{11, 22, 33, 0};
  EXPECT_EQ(MustRun("ldxdw r0, [r1+8]\nexit\n", ctx), 22u);
}

TEST_F(EbpfFixture, WritesWritableField) {
  TestCtx ctx{1, 2, 3, 0};
  auto prog = Asm("mov r2, 99\nstxdw [r1+24], r2\nmov r0, 0\nexit\n");
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(verifier.Verify(*prog).ok());
  auto res = interp.Run(*prog, &ctx, sizeof(ctx));
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(ctx.out, 99u);
}

TEST_F(EbpfFixture, RejectsWriteToReadOnlyField) {
  MustReject("mov r2, 1\nstxdw [r1+0], r2\nmov r0, 0\nexit\n",
             "invalid ctx write");
}

TEST_F(EbpfFixture, RejectsOutOfBoundsCtxRead) {
  MustReject("ldxdw r0, [r1+32]\nexit\n", "invalid ctx read");
}

TEST_F(EbpfFixture, RejectsMisalignedCtxRead) {
  MustReject("ldxdw r0, [r1+4]\nexit\n", "invalid ctx read");
}

TEST_F(EbpfFixture, NarrowCtxReadsAllowedWhenDeclared) {
  TestCtx ctx{0x1122334455667788ull, 0, 0, 0};
  EXPECT_EQ(MustRun("ldxw r0, [r1+0]\nexit\n", ctx), 0x55667788u);
  EXPECT_EQ(MustRun("ldxb r0, [r1+0]\nexit\n", ctx), 0x88u);
}

TEST_F(EbpfFixture, CtxPointerArithmeticWithConstOffset) {
  TestCtx ctx{0, 0, 77, 0};
  EXPECT_EQ(MustRun("mov r2, r1\nadd r2, 16\nldxdw r0, [r2+0]\nexit\n", ctx),
            77u);
}

// --- Stack ----------------------------------------------------------------------

TEST_F(EbpfFixture, StackStoreLoadRoundTrip) {
  EXPECT_EQ(MustRun("mov r2, 123\nstxdw [r10-8], r2\n"
                    "ldxdw r0, [r10-8]\nexit\n"),
            123u);
}

TEST_F(EbpfFixture, RejectsUninitializedStackRead) {
  MustReject("ldxdw r0, [r10-8]\nexit\n", "uninitialized stack");
}

TEST_F(EbpfFixture, RejectsStackOverflow) {
  MustReject("mov r2, 1\nstxdw [r10-520], r2\nmov r0, 0\nexit\n",
             "out of bounds");
}

TEST_F(EbpfFixture, RejectsStackAccessAboveFrame) {
  MustReject("mov r2, 1\nstxdw [r10+8], r2\nmov r0, 0\nexit\n",
             "out of bounds");
}

TEST_F(EbpfFixture, PointerSpillAndReload) {
  // Spill ctx pointer, reload it, use it.
  TestCtx ctx{5, 0, 0, 0};
  EXPECT_EQ(MustRun("stxdw [r10-8], r1\nldxdw r2, [r10-8]\n"
                    "ldxdw r0, [r2+0]\nexit\n",
                    ctx),
            5u);
}

TEST_F(EbpfFixture, PartialOverwriteOfSpillKillsPointer) {
  MustReject(
      "stxdw [r10-8], r1\nmov r2, 0\nstxb [r10-8], r2\n"
      "ldxdw r3, [r10-8]\nldxdw r0, [r3+0]\nexit\n",
      "load from non-pointer");
}

// --- Verifier safety ------------------------------------------------------------

TEST_F(EbpfFixture, RejectsUninitializedRegister) {
  MustReject("mov r0, r5\nexit\n", "uninitialized");
}

TEST_F(EbpfFixture, RejectsMissingExit) {
  auto prog = Asm("mov r0, 0\n");
  ASSERT_TRUE(prog.ok());
  EXPECT_FALSE(verifier.Verify(*prog).ok());
}

TEST_F(EbpfFixture, RejectsExitWithoutR0) {
  MustReject("exit\n", "r0");
}

TEST_F(EbpfFixture, RejectsBackwardJump) {
  MustReject("loop: mov r0, 0\nja loop\nexit\n", "backward");
}

TEST_F(EbpfFixture, RejectsWriteToFramePointer) {
  MustReject("mov r10, 0\nmov r0, 0\nexit\n", "frame pointer");
}

TEST_F(EbpfFixture, RejectsLoadFromScalar) {
  MustReject("mov r2, 1000\nldxdw r0, [r2+0]\nexit\n", "non-pointer");
}

TEST_F(EbpfFixture, RejectsVariablePointerOffset) {
  // Offset from an (unknown) ctx field is not a constant.
  MustReject("ldxdw r2, [r1+0]\nmov r3, r10\nadd r3, r2\n"
             "mov r0, 0\nexit\n",
             "constant offset");
}

TEST_F(EbpfFixture, RejectsEmptyProgram) {
  Program p;
  EXPECT_FALSE(verifier.Verify(p).ok());
}

TEST_F(EbpfFixture, RejectsOversizeProgram) {
  std::vector<Insn> insns(kMaxInsns + 1, MovImm(0, 0));
  insns.back() = Exit();
  Program p(std::move(insns), {});
  EXPECT_FALSE(verifier.Verify(p).ok());
}

TEST_F(EbpfFixture, BranchBoundsRefinementAllowsProvenAccess) {
  // Read ctx->a; if < 3 use it to index the stack at a constant-derived
  // offset... we only allow constant offsets, so instead verify bounds
  // refinement collapses to a constant: if (a == 2) then a is known 2.
  TestCtx ctx{2, 0, 0, 0};
  EXPECT_EQ(MustRun("ldxdw r2, [r1+0]\n"
                    "jeq r2, 2, known\n"
                    "mov r0, 0\nexit\n"
                    "known:\n"
                    "mov r3, r10\nadd r3, -8\n"
                    "stxdw [r3+0], r2\n"
                    "ldxdw r0, [r10-8]\nexit\n",
                    ctx),
            2u);
}

// --- Maps ------------------------------------------------------------------------

TEST(MapTest, ArrayMapBasics) {
  ArrayMap m(8, 4);
  u32 k = 2;
  u64 v = 0xDEAD;
  ASSERT_TRUE(m.Update(&k, &v).ok());
  u8* p = m.Lookup(&k);
  ASSERT_NE(p, nullptr);
  u64 got;
  memcpy(&got, p, 8);
  EXPECT_EQ(got, 0xDEADull);
  k = 4;
  EXPECT_EQ(m.Lookup(&k), nullptr);
  EXPECT_FALSE(m.Update(&k, &v).ok());
}

TEST(MapTest, ArrayMapDeleteZeroes) {
  ArrayMap m(8, 2);
  m.Set<u64>(1, 55);
  u32 k = 1;
  ASSERT_TRUE(m.Delete(&k).ok());
  EXPECT_EQ(m.Get<u64>(1), 0u);
}

TEST(MapTest, HashMapBasics) {
  HashMap m(4, 8, 2);
  u32 k1 = 10, k2 = 20, k3 = 30;
  u64 v = 1;
  ASSERT_TRUE(m.Update(&k1, &v).ok());
  v = 2;
  ASSERT_TRUE(m.Update(&k2, &v).ok());
  v = 3;
  EXPECT_FALSE(m.Update(&k3, &v).ok());  // full
  v = 9;
  ASSERT_TRUE(m.Update(&k1, &v).ok());  // overwrite allowed when full
  u64 got;
  memcpy(&got, m.Lookup(&k1), 8);
  EXPECT_EQ(got, 9u);
  ASSERT_TRUE(m.Delete(&k1).ok());
  EXPECT_EQ(m.Lookup(&k1), nullptr);
  EXPECT_FALSE(m.Delete(&k1).ok());
}

TEST(MapTest, HashMapValuePointerStableAcrossInserts) {
  HashMap m(4, 8, 1000);
  u32 k0 = 0;
  u64 v = 42;
  ASSERT_TRUE(m.Update(&k0, &v).ok());
  u8* p = m.Lookup(&k0);
  for (u32 k = 1; k < 500; k++) {
    ASSERT_TRUE(m.Update(&k, &v).ok());
  }
  EXPECT_EQ(m.Lookup(&k0), p);
}

struct MapProgFixture : EbpfFixture {
  std::shared_ptr<ArrayMap> amap = std::make_shared<ArrayMap>(8, 16);

  // Program: value = lookup(map, key=ctx->a as u32); if null return 0;
  // else increment *value and return it.
  const char* kProg =
      "ldxw r2, [r1+0]\n"         // key from ctx->a low word
      "stxw [r10-4], r2\n"
      "lddw r1, map 0\n"
      "mov r2, r10\n"
      "add r2, -4\n"
      "call map_lookup_elem\n"
      "jne r0, 0, found\n"
      "mov r0, 0\n"
      "exit\n"
      "found:\n"
      "ldxdw r3, [r0+0]\n"
      "add r3, 1\n"
      "stxdw [r0+0], r3\n"
      "mov r0, r3\n"
      "exit\n";
};

TEST_F(MapProgFixture, LookupIncrementPersists) {
  TestCtx ctx{3, 0, 0, 0};
  EXPECT_EQ(MustRun(kProg, ctx, {amap}), 1u);
  EXPECT_EQ(MustRun(kProg, ctx, {amap}), 2u);
  EXPECT_EQ(amap->Get<u64>(3), 2u);
}

TEST_F(MapProgFixture, MissingNullCheckRejected) {
  const char* bad =
      "mov r2, 0\nstxw [r10-4], r2\n"
      "lddw r1, map 0\nmov r2, r10\nadd r2, -4\n"
      "call map_lookup_elem\n"
      "ldxdw r0, [r0+0]\n"  // no null check!
      "exit\n";
  MustReject(bad, "possibly-null", {amap});
}

TEST_F(MapProgFixture, MapValueBoundsEnforced) {
  const char* bad =
      "mov r2, 0\nstxw [r10-4], r2\n"
      "lddw r1, map 0\nmov r2, r10\nadd r2, -4\n"
      "call map_lookup_elem\n"
      "jne r0, 0, ok\nmov r0, 0\nexit\n"
      "ok: ldxdw r0, [r0+8]\n"  // value_size is 8; offset 8 is OOB
      "exit\n";
  MustReject(bad, "out of bounds", {amap});
}

TEST_F(MapProgFixture, UninitializedKeyRejected) {
  const char* bad =
      "lddw r1, map 0\nmov r2, r10\nadd r2, -4\n"
      "call map_lookup_elem\n"  // stack at -4 never written
      "mov r0, 0\nexit\n";
  MustReject(bad, "uninitialized stack", {amap});
}

TEST_F(MapProgFixture, HelperArgTypeEnforced) {
  const char* bad =
      "mov r1, 5\nmov r2, r10\nadd r2, -4\nmov r3, 0\n"
      "stxw [r10-4], r3\n"
      "call map_lookup_elem\n"
      "mov r0, 0\nexit\n";
  MustReject(bad, "map reference", {amap});
}

TEST_F(EbpfFixture, UnknownHelperRejected) {
  MustReject("call 999\nmov r0, 0\nexit\n", "unknown helper");
}

TEST_F(EbpfFixture, TraceHelperRecords) {
  std::vector<u64> trace;
  interp.env().trace = &trace;
  MustRun("mov r1, 42\ncall trace\nmov r0, 0\nexit\n");
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0], 42u);
}

TEST_F(EbpfFixture, KtimeHelperUsesEnv) {
  interp.env().ktime_ns = [] { return 777ull; };
  EXPECT_EQ(MustRun("call ktime_get_ns\nexit\n"), 777u);
}

// --- ProgramBuilder -------------------------------------------------------------

TEST_F(EbpfFixture, BuilderProducesRunnablePrograms) {
  ProgramBuilder b;
  b.Mov(0, 10)
      .Mov(2, 5)
      .JumpIf(kJmpJgt, 0, 7, "big")
      .Mov(0, 0)
      .Ret()
      .Label("big")
      .AluR(kAluAdd, 0, 2)
      .Ret();
  auto prog = b.Build();
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(verifier.Verify(*prog).ok());
  auto res = interp.Run(*prog, nullptr, 0);
  EXPECT_EQ(res.r0, 15u);
}

TEST_F(EbpfFixture, BuilderUnknownLabelFails) {
  ProgramBuilder b;
  b.Jump("missing").Ret();
  EXPECT_FALSE(b.Build().ok());
}

// --- Interpreter runtime guards ---------------------------------------------------

TEST_F(EbpfFixture, RuntimeGuardsCatchWildLoadInUnverifiedProgram) {
  // Skip the verifier on purpose: interpreter must refuse the access.
  auto prog = Asm("lddw r2, 0x10\nldxdw r0, [r2+0]\nexit\n");
  ASSERT_TRUE(prog.ok());
  auto res = interp.Run(*prog, nullptr, 0);
  EXPECT_FALSE(res.status.ok());
}

TEST_F(EbpfFixture, InstructionBudgetBoundsExecution) {
  Interpreter tiny(HelperRegistry::Default(), Interpreter::Options{10});
  auto prog = Asm(
      "mov r0, 0\nmov r0, 0\nmov r0, 0\nmov r0, 0\nmov r0, 0\n"
      "mov r0, 0\nmov r0, 0\nmov r0, 0\nmov r0, 0\nmov r0, 0\nexit\n");
  ASSERT_TRUE(prog.ok());
  auto res = tiny.Run(*prog, nullptr, 0);
  EXPECT_FALSE(res.status.ok());
}

TEST_F(EbpfFixture, ReportsInsnCount) {
  auto prog = Asm("mov r0, 1\nmov r2, 2\nadd r0, r2\nexit\n");
  ASSERT_TRUE(prog.ok());
  auto res = interp.Run(*prog, nullptr, 0);
  EXPECT_EQ(res.insns, 4u);
}

// --- Fuzz: verified programs never trip runtime guards ----------------------------

TEST_F(EbpfFixture, FuzzVerifiedProgramsRunSafely) {
  Rng rng(2024);
  auto amap = std::make_shared<ArrayMap>(8, 4);
  int accepted = 0;
  for (int iter = 0; iter < 4000; iter++) {
    // Generate a structurally plausible but semantically random program:
    // instructions are drawn from legal opcode templates with randomized
    // registers, offsets and immediates. The verifier still rejects many
    // (uninitialized registers, bad ctx offsets, pointer misuse); every
    // accepted one must execute without tripping a runtime guard.
    u32 len = 1 + static_cast<u32>(rng.NextBounded(20));
    std::vector<Insn> insns;
    // Prelude: sometimes initialize some registers with scalars.
    u32 init = static_cast<u32>(rng.NextBounded(6));
    for (u32 r = 2; r < 2 + init; r++) {
      insns.push_back(MovImm(static_cast<u8>(r),
                             static_cast<i32>(rng.NextBounded(128))));
    }
    for (u32 i = 0; i < len; i++) {
      u8 dst = static_cast<u8>(rng.NextBounded(11));
      u8 src = static_cast<u8>(rng.NextBounded(11));
      i16 off = static_cast<i16>(static_cast<i64>(rng.NextBounded(80)) - 40);
      i32 imm = static_cast<i32>(static_cast<i64>(rng.NextBounded(64)) - 8);
      u8 size = static_cast<u8>(rng.NextBounded(4) << 3);
      static const u8 kAlu[] = {kAluAdd, kAluSub, kAluMul, kAluDiv,
                                kAluOr,  kAluAnd, kAluLsh, kAluRsh,
                                kAluMod, kAluXor, kAluMov, kAluArsh};
      static const u8 kJmp[] = {kJmpJeq, kJmpJne, kJmpJgt, kJmpJge,
                                kJmpJlt, kJmpJle, kJmpJset};
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
        case 5: {
          // Forward conditional jump with a small offset (may land
          // anywhere, including past the end — verifier must cope).
          i16 joff = static_cast<i16>(rng.NextBounded(6));
          insns.push_back(JmpImm(kJmp[rng.NextBounded(7)], dst, imm, joff));
          break;
        }
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
    TestCtx ctx{rng.Next(), rng.Next(), rng.Next(), 0};
    auto res = interp.Run(prog, &ctx, sizeof(ctx));
    // Property: whatever the verifier accepts must run cleanly.
    EXPECT_TRUE(res.status.ok())
        << "iteration " << iter << ": " << res.status.ToString();
  }
  // Sanity: the fuzzer actually exercises the property.
  EXPECT_GT(accepted, 20);
}

// --- Differential: interpreter vs an independent ALU evaluator --------------------
//
// Random straight-line ALU programs, executed by the interpreter and by a
// from-the-spec reference evaluator written here; results must agree on
// every register. Covers both widths, both operand modes, and the edge
// semantics (div/0 -> 0, mod/0 -> dst, shift masking, 32-bit
// zero-extension).

struct AluStep {
  u8 op;
  bool is64;
  bool reg_mode;
  u8 dst;
  u8 src;
  i32 imm;
};

u64 RefAlu(u8 op, bool is64, u64 a, u64 b) {
  if (!is64) {
    a = static_cast<u32>(a);
    b = static_cast<u32>(b);
  }
  u64 shift_mask = is64 ? 63 : 31;
  u64 r;
  switch (op) {
    case kAluAdd: r = a + b; break;
    case kAluSub: r = a - b; break;
    case kAluMul: r = a * b; break;
    case kAluDiv: r = b ? a / b : 0; break;
    case kAluMod: r = b ? a % b : a; break;
    case kAluOr: r = a | b; break;
    case kAluAnd: r = a & b; break;
    case kAluXor: r = a ^ b; break;
    case kAluLsh: r = a << (b & shift_mask); break;
    case kAluRsh: r = a >> (b & shift_mask); break;
    case kAluArsh:
      r = is64 ? static_cast<u64>(static_cast<i64>(a) >> (b & 63))
               : static_cast<u64>(static_cast<u32>(static_cast<i32>(
                     static_cast<u32>(a)) >> (b & 31)));
      break;
    case kAluMov: r = b; break;
    case kAluNeg: r = 0 - a; break;
    default: r = a; break;
  }
  return is64 ? r : static_cast<u32>(r);
}

struct AluDifferentialTest : EbpfFixture,
                             ::testing::WithParamInterface<u64> {};

TEST_P(AluDifferentialTest, RandomProgramsMatchReferenceEvaluator) {
  Rng rng(GetParam());
  const u8 kOps[] = {kAluAdd, kAluSub, kAluMul, kAluDiv, kAluOr,
                     kAluAnd, kAluLsh, kAluRsh, kAluNeg, kAluMod,
                     kAluXor, kAluMov, kAluArsh};
  const u8 kRegs = 6;  // r0..r5 participate

  for (int prog_i = 0; prog_i < 200; prog_i++) {
    // Random seeds + a random straight-line op sequence.
    u64 seed[kRegs];
    std::vector<AluStep> steps;
    u32 nsteps = 1 + static_cast<u32>(rng.NextBounded(32));
    for (u8 i = 0; i < kRegs; i++) seed[i] = rng.Next();
    for (u32 i = 0; i < nsteps; i++) {
      AluStep s;
      s.op = kOps[rng.NextBounded(sizeof(kOps))];
      s.is64 = rng.NextBounded(2) == 0;
      s.reg_mode = rng.NextBounded(2) == 0;
      s.dst = static_cast<u8>(rng.NextBounded(kRegs));
      s.src = static_cast<u8>(rng.NextBounded(kRegs));
      s.imm = static_cast<i32>(rng.Next());
      // Keep constant operands inside what a strict verifier allows:
      // no const div/mod by zero, no const over-width shifts.
      if (!s.reg_mode) {
        if ((s.op == kAluDiv || s.op == kAluMod) && s.imm == 0) s.imm = 3;
        if (s.op == kAluLsh || s.op == kAluRsh || s.op == kAluArsh) {
          s.imm &= s.is64 ? 63 : 31;
        }
      }
      steps.push_back(s);
    }

    // Emit the program...
    std::vector<Insn> insns;
    for (u8 i = 0; i < kRegs; i++) {
      insns.push_back(LdImm64Lo(i, 0, seed[i]));
      insns.push_back(LdImm64Hi(seed[i]));
    }
    for (const AluStep& s : steps) {
      if (s.op == kAluNeg) {
        insns.push_back(AluImm(kAluNeg, s.dst, 0, s.is64));
      } else if (s.reg_mode) {
        insns.push_back(AluReg(s.op, s.dst, s.src, s.is64));
      } else {
        insns.push_back(AluImm(s.op, s.dst, s.imm, s.is64));
      }
    }
    // Fold every register into r0 so one return value checks them all.
    for (u8 i = 1; i < kRegs; i++) {
      insns.push_back(AluReg(kAluXor, 0, i, /*is64=*/true));
    }
    insns.push_back(Exit());

    // ...evaluate the same steps independently...
    u64 regs[kRegs];
    for (u8 i = 0; i < kRegs; i++) regs[i] = seed[i];
    for (const AluStep& s : steps) {
      u64 b = s.op == kAluNeg ? 0
              : s.reg_mode    ? regs[s.src]
                              : static_cast<u64>(static_cast<i64>(s.imm));
      regs[s.dst] = RefAlu(s.op, s.is64, regs[s.dst], b);
    }
    u64 expect = regs[0];
    for (u8 i = 1; i < kRegs; i++) expect ^= regs[i];

    // ...and compare through the real verifier + interpreter.
    Program prog(std::move(insns), {});
    ASSERT_TRUE(verifier.Verify(prog).ok()) << "program " << prog_i;
    TestCtx ctx{};
    auto res = interp.Run(prog, &ctx, sizeof(ctx));
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    EXPECT_EQ(res.r0, expect) << "program " << prog_i << " of seed "
                              << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluDifferentialTest,
                         ::testing::Values(1, 7, 42, 1234, 987654321),
                         [](const ::testing::TestParamInfo<u64>& p) {
                           return std::to_string(p.param);
                         });

// --- Unsupported encodings are rejected, not misexecuted ---------------------------

TEST_F(EbpfFixture, VerifierRejectsJmp32Class) {
  // JMP32 (class 0x06) is deliberately unsupported; hand-craft one since
  // the assembler never emits it.
  std::vector<Insn> insns = {
      MovImm(0, 0),
      Insn{static_cast<u8>(static_cast<u8>(kClassJmp32) | kJmpJeq), 0, 0, 0},
      Exit(),
  };
  Program prog(std::move(insns), {});
  EXPECT_FALSE(verifier.Verify(prog).ok());
}

TEST_F(EbpfFixture, VerifierRejectsByteswap) {
  std::vector<Insn> insns = {
      MovImm(0, 0),
      Insn{static_cast<u8>(static_cast<u8>(kClassAlu64) | kAluEnd), 0, 0, 16},
      Exit(),
  };
  Program prog(std::move(insns), {});
  EXPECT_FALSE(verifier.Verify(prog).ok());
}

// --- Disassembler ------------------------------------------------------------------

TEST_F(EbpfFixture, DisassembleReadableOutput) {
  auto prog = Asm(
      "  ldxdw r3, [r1+8]\n"
      "  jne r3, 1, allow\n"
      "  mov r0, 0x10286\n"
      "  exit\n"
      "allow:\n"
      "  mov r0, 0x120000\n"
      "  exit\n");
  ASSERT_TRUE(prog.ok());
  auto text = Disassemble(*prog);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("ldxdw r3, [r1+8]"), std::string::npos) << *text;
  EXPECT_NE(text->find("jne r3, 1, L4"), std::string::npos) << *text;
  EXPECT_NE(text->find("L4:"), std::string::npos) << *text;
  EXPECT_NE(text->find("exit"), std::string::npos) << *text;
}

TEST_F(EbpfFixture, DisassembleResolvesHelperNames) {
  auto map = std::make_shared<ArrayMap>(4, 8);
  auto prog = Asm(
      "  lddw r1, map 0\n"
      "  mov r2, r10\n"
      "  add r2, -8\n"
      "  stw [r2], 0\n"
      "  call map_lookup_elem\n"
      "  mov r0, 0\n"
      "  exit\n",
      {map});
  ASSERT_TRUE(prog.ok());
  auto text = Disassemble(*prog);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("call map_lookup_elem"), std::string::npos) << *text;
  EXPECT_NE(text->find("lddw r1, map 0"), std::string::npos) << *text;
}

// Property: every shipped classifier round-trips exactly through
// disassemble -> re-assemble (same instruction bytes).
TEST_F(EbpfFixture, ShippedClassifiersRoundTripThroughDisassembler) {
  auto roundtrip = [&](Result<Program> orig) {
    ASSERT_TRUE(orig.ok()) << orig.status().ToString();
    auto text = Disassemble(*orig);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    auto again = Assemble(*text, orig->maps());
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << *text;
    ASSERT_EQ(again->insns().size(), orig->insns().size()) << *text;
    for (usize i = 0; i < orig->insns().size(); i++) {
      const Insn& a = orig->insns()[i];
      const Insn& b = again->insns()[i];
      EXPECT_EQ(a.opcode, b.opcode) << "insn " << i << "\n" << *text;
      EXPECT_EQ(a.regs, b.regs) << "insn " << i;
      EXPECT_EQ(a.off, b.off) << "insn " << i;
      EXPECT_EQ(a.imm, b.imm) << "insn " << i;
    }
  };
  roundtrip(functions::PassthroughClassifier());
  roundtrip(functions::EncryptorClassifier());
  roundtrip(functions::ReplicatorClassifier());
  roundtrip(functions::ReadOnlyClassifier());
  roundtrip(functions::VendorPassClassifier());
  roundtrip(functions::KvPassClassifier());
  roundtrip(functions::RateLimitClassifier(functions::MakeQosMap(100, 10)));
}

// Property: random ALU/jump/memory programs round-trip bit-exactly.
TEST_F(EbpfFixture, RandomProgramsRoundTripThroughDisassembler) {
  Rng rng(4242);
  const u8 kAluOpsArr[] = {kAluAdd, kAluSub, kAluMul, kAluOr,  kAluAnd,
                           kAluLsh, kAluRsh, kAluNeg, kAluMod, kAluXor,
                           kAluMov, kAluArsh};
  for (int iter = 0; iter < 300; iter++) {
    std::vector<Insn> insns;
    u32 body = 2 + static_cast<u32>(rng.NextBounded(12));
    for (u32 i = 0; i < body; i++) {
      switch (rng.NextBounded(5)) {
        case 0:  // lddw
          insns.push_back(LdImm64Lo(static_cast<u8>(rng.NextBounded(10)), 0,
                                    rng.Next()));
          insns.push_back(LdImm64Hi(insns.back().imm));
          insns.back().imm = static_cast<i32>(rng.Next());
          break;
        case 1:  // memory
          insns.push_back(Ldx(
              static_cast<u8>(rng.NextBounded(4) << 3),
              static_cast<u8>(rng.NextBounded(10)),
              static_cast<u8>(rng.NextBounded(10)),
              static_cast<i16>(static_cast<i64>(rng.NextBounded(512)) -
                               256)));
          break;
        case 2: {  // forward jump (target resolved below)
          insns.push_back(JmpImm(kJmpJne,
                                 static_cast<u8>(rng.NextBounded(10)),
                                 static_cast<i32>(rng.Next()), 0));
          break;
        }
        default: {  // ALU
          u8 op = kAluOpsArr[rng.NextBounded(sizeof(kAluOpsArr))];
          u8 dst = static_cast<u8>(rng.NextBounded(10));
          bool is64 = rng.NextBounded(2) == 0;
          if (op == kAluNeg) {
            insns.push_back(AluImm(kAluNeg, dst, 0, is64));
          } else if (rng.NextBounded(2)) {
            insns.push_back(AluReg(op, dst,
                                   static_cast<u8>(rng.NextBounded(10)),
                                   is64));
          } else {
            insns.push_back(
                AluImm(op, dst, static_cast<i32>(rng.Next()), is64));
          }
        }
      }
    }
    insns.push_back(Exit());
    // Point every jump at the final exit (always forward, in range).
    for (usize i = 0; i < insns.size(); i++) {
      if ((insns[i].opcode & 0x07) == kClassJmp &&
          insns[i].opcode != kOpExit && insns[i].opcode != kOpCall) {
        insns[i].off = static_cast<i16>(insns.size() - 1 - i - 1);
      }
    }
    Program orig(std::move(insns), {});
    auto text = Disassemble(orig);
    ASSERT_TRUE(text.ok()) << iter << ": " << text.status().ToString();
    auto again = Assemble(*text, {});
    ASSERT_TRUE(again.ok()) << iter << ": " << again.status().ToString()
                            << "\n" << *text;
    ASSERT_EQ(again->insns().size(), orig.insns().size()) << *text;
    for (usize i = 0; i < orig.insns().size(); i++) {
      const Insn& a = orig.insns()[i];
      const Insn& b = again->insns()[i];
      ASSERT_TRUE(a.opcode == b.opcode && a.regs == b.regs &&
                  a.off == b.off && a.imm == b.imm)
          << "iter " << iter << " insn " << i << "\n" << *text;
    }
  }
}

}  // namespace
}  // namespace nvmetro::ebpf
