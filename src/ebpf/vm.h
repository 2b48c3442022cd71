// Pre-decoded eBPF execution engine.
//
// The legacy interpreter (ebpf/interpreter.h) re-decodes every
// instruction on every step: opcode field splits, register validation,
// LD_IMM64 folding, map-index resolution and helper lookup all happen
// per executed instruction. That is fine for a classifier that runs
// once per request, but resubmission chains (DESIGN.md §15) run the
// classifier once per *hop*, so decode cost multiplies.
//
// DecodedProgram::Decode lowers the insn stream ONCE into an array of
// dispatch-ready DInsn slots — one per original instruction slot, so
// decoded pc == original pc and jump targets need no remapping. Each
// slot carries a dense op key, pre-validated register numbers, the
// folded 64-bit immediate (sign-extended / masked / shift-clamped as
// its op requires), the absolute jump target, the resolved Map* or
// HelperSpec*, and the memory access size. Invalid slots decode to an
// error op that fires only if reached, with the exact message the
// legacy interpreter would produce at that pc — so the two engines are
// bit-identical in r0, status, and executed-instruction count
// (tests/ebpf_vm_test.cc and PushdownEngineTest pin this; the
// per-invocation win, ~55%, is recorded in EXPERIMENTS.md).
//
// DecodedVm::Run dispatches with computed goto where the compiler
// supports it (direct-threaded) and a dense switch otherwise. The
// RegionSet runtime guard is a persistent member, so a warmed-up VM
// executes verified programs with zero heap allocations per run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ebpf/helpers.h"
#include "ebpf/interpreter.h"
#include "ebpf/program.h"
#include "ebpf/regions.h"

namespace nvmetro::ebpf {

// Dense decoded op keys. The X-macro keeps the enum and the computed-
// goto label table in vm.cc in lockstep; order within each ALU/JMP
// block is load-bearing (Decode maps opcode nibbles onto it), as is
// the B/H/W/Dw order of each memory block (Decode adds log2(size)).
// Memory ops are size-specialized so every load/store compiles to a
// fixed-width move instead of a variable-length memcpy — the decode-
// time half of the fast-load path (the other half is the fixed-region
// bounds kept in locals by DecodedVm::Run).
#define NVMETRO_EBPF_VM_OPS(X)                                          \
  X(kErr)                                                               \
  X(kAdd64Reg) X(kSub64Reg) X(kMul64Reg) X(kDiv64Reg) X(kMod64Reg)      \
  X(kOr64Reg) X(kAnd64Reg) X(kXor64Reg) X(kLsh64Reg) X(kRsh64Reg)       \
  X(kArsh64Reg) X(kMov64Reg)                                            \
  X(kAdd64Imm) X(kSub64Imm) X(kMul64Imm) X(kDiv64Imm) X(kMod64Imm)      \
  X(kOr64Imm) X(kAnd64Imm) X(kXor64Imm) X(kLsh64Imm) X(kRsh64Imm)       \
  X(kArsh64Imm) X(kMov64Imm) X(kNeg64)                                  \
  X(kAdd32Reg) X(kSub32Reg) X(kMul32Reg) X(kDiv32Reg) X(kMod32Reg)      \
  X(kOr32Reg) X(kAnd32Reg) X(kXor32Reg) X(kLsh32Reg) X(kRsh32Reg)       \
  X(kArsh32Reg) X(kMov32Reg)                                            \
  X(kAdd32Imm) X(kSub32Imm) X(kMul32Imm) X(kDiv32Imm) X(kMod32Imm)      \
  X(kOr32Imm) X(kAnd32Imm) X(kXor32Imm) X(kLsh32Imm) X(kRsh32Imm)       \
  X(kArsh32Imm) X(kMov32Imm) X(kNeg32)                                  \
  X(kLdxB) X(kLdxH) X(kLdxW) X(kLdxDw)                                  \
  X(kStxB) X(kStxH) X(kStxW) X(kStxDw)                                  \
  X(kStB) X(kStH) X(kStW) X(kStDw)                                      \
  X(kLdImm) X(kLdMapPtr)                                                \
  X(kJa) X(kCall) X(kExit)                                              \
  X(kJeqReg) X(kJneReg) X(kJgtReg) X(kJgeReg) X(kJltReg) X(kJleReg)     \
  X(kJsetReg) X(kJsgtReg) X(kJsgeReg) X(kJsltReg) X(kJsleReg)           \
  X(kJeqImm) X(kJneImm) X(kJgtImm) X(kJgeImm) X(kJltImm) X(kJleImm)     \
  X(kJsetImm) X(kJsgtImm) X(kJsgeImm) X(kJsltImm) X(kJsleImm)

enum class DOp : u8 {
#define NVMETRO_EBPF_VM_ENUM(n) n,
  NVMETRO_EBPF_VM_OPS(NVMETRO_EBPF_VM_ENUM)
#undef NVMETRO_EBPF_VM_ENUM
      kNumOps,
};

/// One decoded instruction slot. 32 bytes, dispatch-ready.
struct DInsn {
  DOp key = DOp::kErr;
  u8 dst = 0;
  u8 src = 0;
  u8 size = 0;      // memory access bytes (LDX/ST/STX)
  u32 target = 0;   // absolute jump target, or error-message index
  i32 off = 0;      // sign-extended memory offset
  u32 pad_ = 0;
  u64 imm = 0;      // folded operand (sign-extended / masked / clamped)
  const void* ptr = nullptr;  // resolved Map* (kLdMapPtr) / HelperSpec* (kCall)
};
static_assert(sizeof(DInsn) == 32);

class DecodedProgram {
 public:
  /// Lowers `prog` for dispatch. Never fails: invalid instructions
  /// decode to error ops that reproduce the legacy interpreter's
  /// runtime diagnostics if (and only if) execution reaches them.
  static DecodedProgram Decode(const Program& prog,
                               const HelperRegistry& helpers =
                                   HelperRegistry::Default());

  const std::vector<DInsn>& code() const { return code_; }
  const std::vector<const Map*>& map_ptrs() const { return map_ptrs_; }
  const std::string& error_msg(u32 idx) const { return errors_[idx]; }

 private:
  u32 AddError(std::string msg) {
    errors_.push_back(std::move(msg));
    return static_cast<u32>(errors_.size() - 1);
  }

  std::vector<DInsn> code_;
  std::vector<std::string> errors_;  // messages for kErr slots
  // Keeps the maps referenced by resolved pointers alive.
  std::vector<std::shared_ptr<Map>> maps_;
  std::vector<const Map*> map_ptrs_;
};

class DecodedVm {
 public:
  struct Options {
    u64 max_insns = 1'000'000;
  };

  DecodedVm() : DecodedVm(Options{}) {}
  explicit DecodedVm(Options opts) : opts_(opts) {}

  HelperEnv& env() { return env_; }

  /// Bit-identical to Interpreter::Run on the same program + params
  /// (r0, status, insns, map_regions).
  Interpreter::RunResult Run(const DecodedProgram& prog,
                             const RunParams& params);

 private:
  Options opts_;
  HelperEnv env_;
  // Persistent so steady-state runs never allocate (Reset keeps
  // capacity); verified programs stay within the inline slots anyway.
  RegionSet regions_;
};

}  // namespace nvmetro::ebpf
