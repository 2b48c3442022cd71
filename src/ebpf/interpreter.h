// eBPF bytecode interpreter.
//
// Executes verified programs against a context structure. As a defense in
// depth (and to make the fuzz tests meaningful), every memory access is
// also bounds-checked at runtime against the regions the program may
// legitimately touch: the context, the 512-byte stack, the optional
// read-only data region, and map values returned by helpers during this
// run (one reusable region slot per helper call site — see
// ebpf/regions.h). When a CtxDescriptor is supplied, stores into the
// context additionally re-check the field table's write permissions at
// run time, so even a verifier gap cannot corrupt a read-only ctx field.
// A verified program never trips these checks; an unverified one cannot
// corrupt the host.
//
// This is the legacy decode-per-step engine, kept as the test oracle
// for the pre-decoded VM in ebpf/vm.h, which the router runs: the
// conformance and pushdown suites require bit-identical verdict streams.
#pragma once

#include <vector>

#include "common/status.h"
#include "ebpf/helpers.h"
#include "ebpf/program.h"

namespace nvmetro::ebpf {

/// Per-run inputs shared by both execution engines.
struct RunParams {
  void* ctx = nullptr;
  u32 ctx_size = 0;
  /// Optional runtime enforcement of the ctx field table for stores
  /// (writes must hit a writable declared field). Null = any store
  /// inside the ctx region is allowed (legacy behavior for raw tests).
  const CtxDescriptor* ctx_desc = nullptr;
  /// Optional read-only data region (e.g. a completed read's data page).
  const void* data = nullptr;
  u32 data_len = 0;
};

class Interpreter {
 public:
  struct Options {
    /// Hard budget on executed instructions (runaway guard; verified
    /// programs are loop-free so they terminate well below this).
    u64 max_insns = 1'000'000;
  };

  struct RunResult {
    Status status;      // ok unless a runtime guard fired
    u64 r0 = 0;         // program return value
    u64 insns = 0;      // instructions executed (used for cost modeling)
    /// Live map-value regions at exit (bounded by distinct helper call
    /// sites; the region-growth regression test pins this).
    u64 map_regions = 0;
  };

  explicit Interpreter(const HelperRegistry& helpers =
                           HelperRegistry::Default())
      : Interpreter(helpers, Options{}) {}
  Interpreter(const HelperRegistry& helpers, Options opts);

  /// Ambient services (simulated clock, RNG, trace sink) for helpers.
  HelperEnv& env() { return env_; }

  /// Runs the program with r1 = ctx. `ctx_size` bounds runtime ctx access.
  RunResult Run(const Program& prog, void* ctx, u32 ctx_size);
  /// Full-parameter form: ctx write table + read-only data region.
  RunResult Run(const Program& prog, const RunParams& params);

 private:
  const HelperRegistry& helpers_;
  Options opts_;
  HelperEnv env_;
};

}  // namespace nvmetro::ebpf
