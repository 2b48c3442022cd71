// Classifier ABI: the context structure passed to eBPF I/O classifiers,
// the hook identifiers, and the verdict encoding.
//
// This is the programming model of paper Listing 1: the classifier's
// entry point receives a ctx describing the request and the current hook,
// and returns a verdict that combines routing flags (SEND_HQ / SEND_NQ /
// SEND_KQ), completion policy (WILL_COMPLETE_*, COMPLETE with an NVMe
// status in the low bits), and hook installation (HOOK_HCQ / HOOK_NCQ /
// HOOK_KCQ, WAIT_FOR_HOOK).
//
// Direct mediation: the ctx fields `slba`, `nlb` and `state` are
// writable; everything else is read-only, enforced by the verifier's
// ctx-access table. LBA translation for partition-attached controllers is
// performed by the classifier itself (unlike MDev-NVMe, which hardcodes
// it in the kernel module — paper §III-C).
#pragma once

#include <cstddef>

#include "common/types.h"
#include "ebpf/helpers.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "nvme/defs.h"

namespace nvmetro::core {

/// Hook identifiers (ctx->current_hook).
enum Hook : u64 {
  kHookVsq = 0,  // new request popped from a VSQ
  kHookHcq = 1,  // fast-path (device) completion
  kHookNcq = 2,  // notify-path (UIF) completion
  kHookKcq = 3,  // kernel-path completion
};

/// Context visible to classifiers. All fields are 8 bytes; offsets are
/// part of the ABI (static_asserts below).
struct ClassifierCtx {
  u64 current_hook = 0;  // ro: Hook
  u64 opcode = 0;        // ro: NVMe opcode
  u64 nsid = 0;          // ro
  u64 slba = 0;          // RW: starting LBA (direct mediation)
  u64 nlb = 0;           // RW: block count (1-based)
  u64 error = 0;         // ro: NVMe status of the completing target
  u64 state = 0;         // RW: persists across hooks of one request
  u64 vm_id = 0;         // ro
  u64 part_offset = 0;   // ro: partition first LBA on backend namespace
  u64 part_limit = 0;    // ro: partition size in LBAs
  u64 cmd_arg = 0;       // ro: SQE cdw2 | cdw3<<32 (guest-chosen argument)
  u64 data = 0;          // ro: completed read's data page (0 when absent)
  u64 data_len = 0;      // ro: readable bytes behind `data`
  u64 chain_depth = 0;   // ro: resubmission hops taken so far
};

static_assert(sizeof(ClassifierCtx) == 112);
static_assert(offsetof(ClassifierCtx, current_hook) == 0);
static_assert(offsetof(ClassifierCtx, opcode) == 8);
static_assert(offsetof(ClassifierCtx, slba) == 24);
static_assert(offsetof(ClassifierCtx, error) == 40);
static_assert(offsetof(ClassifierCtx, state) == 48);
static_assert(offsetof(ClassifierCtx, cmd_arg) == 80);
static_assert(offsetof(ClassifierCtx, data) == 88);
static_assert(offsetof(ClassifierCtx, data_len) == 96);
static_assert(offsetof(ClassifierCtx, chain_depth) == 104);

/// Verdict bits. Low 16 bits carry an NVMe status for COMPLETE.
enum Verdict : u64 {
  kStatusMask = 0xFFFF,
  kComplete = 1ull << 16,        // finish request now (status in low bits)
  kSendHq = 1ull << 17,          // fast path: physical device queues
  kSendNq = 1ull << 18,          // notify path: UIF
  kSendKq = 1ull << 19,          // kernel path: host block layer
  kWillCompleteHq = 1ull << 20,  // auto-complete when fast path finishes
  kWillCompleteNq = 1ull << 21,
  kWillCompleteKq = 1ull << 22,
  kHookOnHcq = 1ull << 23,       // re-run classifier on fast-path cpl
  kHookOnNcq = 1ull << 24,
  kHookOnKcq = 1ull << 25,
  kWaitForHook = 1ull << 26,     // suppress default completion
  // At a completion hook of a read: re-issue the request with the
  // rewritten slba/nlb instead of completing it — the classifier
  // chases dependent I/O below the guest (DESIGN.md §15). The router
  // enforces hook/opcode/status validity, a bounded chain depth, and
  // that nlb does not grow beyond the original request.
  kResubmit = 1ull << 27,
};

/// Ctx-access table for the verifier (reads everywhere, writes only to
/// slba/nlb/state).
const ebpf::CtxDescriptor& NvmetroCtxDescriptor();

/// Bytes of a completed read's data page exposed via ctx->data (one
/// host page; the router never maps more than the first PRP's page).
constexpr u32 kClassifierDataRegionSize = 4096;

/// A verified classifier program plus its execution engine, with cost
/// reporting for the simulation (base cost + per-instruction cost).
///
/// Create() pre-decodes the insn stream once (ebpf/vm.h) so per-hop
/// invocation — which resubmission chains multiply — skips all field
/// decoding. The legacy interpreter (ebpf/interpreter.h) is the test
/// oracle: the conformance and pushdown suites pin bit-identical verdict
/// streams and instruction counts, hence identical simulated cost.
class ClassifierRuntime {
 public:
  struct RunResult {
    u64 verdict = 0;
    SimTime cpu_cost = 0;
    Status status;
  };

  /// Verifies `prog` against the NVMetro context; fails on rejection
  /// (the router refuses unverifiable classifiers).
  static Result<std::unique_ptr<ClassifierRuntime>> Create(
      ebpf::Program prog);

  /// Runs the classifier for one hook invocation. When ctx->data is
  /// set, that page is registered as the run's read-only data region.
  RunResult Run(ClassifierCtx* ctx);

  /// Simulated-clock / RNG hookup for helpers.
  ebpf::HelperEnv& env() { return dvm_.env(); }

  u64 invocations() const { return invocations_; }

 private:
  explicit ClassifierRuntime(const ebpf::Program& prog)
      : decoded_(ebpf::DecodedProgram::Decode(prog)) {}

  ebpf::DecodedProgram decoded_;
  ebpf::DecodedVm dvm_;
  u64 invocations_ = 0;
};

/// Classifier invocation cost model: fixed entry/exit plus per-insn.
constexpr SimTime kClassifierBaseCost = 90;
constexpr double kClassifierPerInsnCost = 1.6;
constexpr SimTime ClassifierCost(u64 insns) {
  return kClassifierBaseCost +
         static_cast<SimTime>(static_cast<double>(insns) *
                              kClassifierPerInsnCost);
}

}  // namespace nvmetro::core
