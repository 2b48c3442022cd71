// Ablation bench (DESIGN.md §6): isolates the cost of NVMetro's design
// choices on the basic 512B random-read workload:
//   - classifier on (NVMetro) vs fixed translation (MDev mode): the price
//     of eBPF-based flexibility;
//   - the same classifier padded with extra instructions;
//   - shared router worker vs one worker per VM at 4 VMs.
// `--batch-sweep` runs the batching ablation (DESIGN.md §10) instead.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ebpf/assembler.h"
#include "functions/classifiers.h"

namespace nvmetro::bench {
namespace {

/// One fio cell on a fresh NVMetro testbed with `drive` and `params`.
/// IOPS and guest CPU are summed over the VMs; host CPU is the first
/// VM's, since the host agents are shared. A non-empty `classifier_asm`
/// replaces the first VM's classifier before the run.
FioResult RunNvmetroCell(const ssd::ControllerConfig& drive,
                         SolutionParams params, const CellSpec& cell,
                         const BenchOptions& opts,
                         const std::string& classifier_asm = "") {
  Testbed tb(drive);
  params.seed = opts.seed;
  auto bundle = SolutionBundle::Create(&tb, SolutionKind::kNvmetro, params);
  if (!bundle) return FioResult{};
  if (!classifier_asm.empty()) {
    auto prog = ebpf::Assemble(classifier_asm, {});
    core::VirtualController* vc = bundle->nvmetro_host()->controller(0);
    if (!prog.ok() || !vc->InstallClassifier(std::move(*prog)).ok()) {
      return FioResult{};
    }
  }
  FioConfig cfg;
  cfg.block_size = cell.bs;
  cfg.queue_depth = cell.qd;
  cfg.num_jobs = cell.jobs;
  cfg.mode = cell.mode;
  cfg.warmup = opts.warmup;
  cfg.duration = opts.duration;
  cfg.seed = opts.seed;
  std::vector<baselines::StorageSolution*> sols;
  for (u32 i = 0; i < bundle->num_vms(); i++) {
    sols.push_back(bundle->vm_solution(i));
  }
  auto results = workload::Fio::RunMulti(&tb.sim, sols, cfg);
  FioResult agg = results[0];
  for (usize i = 1; i < results.size(); i++) {
    agg.iops += results[i].iops;
    agg.guest_cpu_pct += results[i].guest_cpu_pct;
  }
  return agg;
}

// A drive fast enough that the shared router worker, not the SSD, is
// the bottleneck: both serial drive stages (firmware pipeline and
// per-command bus setup) are dropped well below the router's
// per-request cost, and jitter/slow-ops are disabled so the sweep is
// a clean A/B on the batching knob alone.
ssd::ControllerConfig RouterBoundDrive() {
  ssd::ControllerConfig cfg = Testbed::DefaultDrive();
  cfg.latency.cmd_overhead_ns = 200;
  cfg.latency.bus_setup_ns = 100;
  cfg.latency.read_media_ns = 4000;
  cfg.latency.write_media_ns = 3000;
  cfg.latency.slow_op_rate = 0;
  cfg.latency.jitter = 0;
  return cfg;
}

/// `--batch-sweep`: batching ablation (DESIGN.md §10). 512B random
/// read, 4 VMs sharing one router worker on a router-bound drive;
/// sweeps max_batch x queue depth. The `--quick` table is a golden
/// (tests/golden/ablation_batch_sweep.txt).
int RunBatchSweep(const BenchOptions& opts) {
  PrintHeader("Ablation: batched submission/completion pipeline",
              "512B random read, 4 VMs, 1 shared router worker, "
              "router-bound drive");
  const u32 kBatches[] = {1, 4, 16, 32};
  const u32 kDepths[] = {1, 32};
  TablePrinter t({"qd", "max_batch", "KIOPS", "vs batch=1"});
  for (u32 qd : kDepths) {
    CellSpec cell{512, qd, 1, FioMode::kRandRead};
    double base_iops = 0;
    for (u32 mb : kBatches) {
      SolutionParams params;
      params.num_vms = 4;
      params.router_workers = 1;  // shared worker: the contended resource
      params.router_costs.max_batch = mb;
      params.uif_max_batch = mb;
      FioResult r = RunNvmetroCell(RouterBoundDrive(), params, cell, opts);
      if (mb == 1) base_iops = r.iops;
      double gain = base_iops > 0 ? (r.iops / base_iops - 1.0) * 100.0 : 0;
      t.AddRow({StrFormat("%u", qd), StrFormat("%u", mb),
                StrFormat("%.1f", r.iops / 1000.0),
                mb == 1 ? std::string("-") : StrFormat("%+.1f%%", gain)});
    }
  }
  t.Print();
  return 0;
}

int Main(int argc, const char* const* argv) {
  Flags flags;
  DefineBenchFlags(&flags);
  flags.DefineBool("batch-sweep", false,
                   "run the batching ablation sweep instead of the "
                   "standard ablation table");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  BenchOptions opts = OptionsFromFlags(flags);

  if (flags.GetBool("batch-sweep")) return RunBatchSweep(opts);

  PrintHeader("Ablation: router design choices",
              "512B random read; IOPS and host CPU%% per variant");
  TablePrinter t({"variant", "KIOPS", "host CPU %"});

  // (1) Classifier vs fixed translation at QD128.
  {
    CellSpec cell{512, 128, 1, FioMode::kRandRead};
    FioResult nvmetro = RunCell(SolutionKind::kNvmetro, cell, opts);
    FioResult mdev = RunCell(SolutionKind::kMdev, cell, opts);
    t.AddRow({"eBPF classifier (NVMetro), qd128",
              StrFormat("%.1f", nvmetro.iops / 1000.0),
              StrFormat("%.0f", nvmetro.host_cpu_pct)});
    t.AddRow({"fixed translation (MDev), qd128",
              StrFormat("%.1f", mdev.iops / 1000.0),
              StrFormat("%.0f", mdev.host_cpu_pct)});
  }

  // (2) Classifier complexity sweep: the same passthrough policy padded
  // with extra (verified) eBPF work — flexibility must stay ~free even
  // for much larger programs, because the per-request classifier cost is
  // nanoseconds against a multi-microsecond device.
  for (u32 pad : {0u, 64u, 256u}) {
    CellSpec cell{512, 128, 1, FioMode::kRandRead};
    std::string text;
    for (u32 i = 0; i < pad; i++) text += "  mov r3, 7\n";
    text += functions::PassthroughClassifierAsm();
    FioResult r = RunNvmetroCell(Testbed::DefaultDrive(), SolutionParams{},
                                 cell, opts, text);
    t.AddRow({StrFormat("classifier +%u padding insns, qd128", pad),
              StrFormat("%.1f", r.iops / 1000.0),
              StrFormat("%.0f", r.host_cpu_pct)});
  }

  // (3) Shared vs per-VM workers, 4 VMs at QD32.
  {
    CellSpec cell{512, 32, 1, FioMode::kRandRead};
    SolutionParams params;
    params.num_vms = 4;
    params.router_workers = 1;
    FioResult shared =
        RunNvmetroCell(Testbed::DefaultDrive(), params, cell, opts);
    params.router_workers = 4;
    FioResult per_vm =
        RunNvmetroCell(Testbed::DefaultDrive(), params, cell, opts);
    t.AddRow({"4 VMs, 1 shared worker",
              StrFormat("%.1f", shared.iops / 1000.0),
              StrFormat("%.0f", shared.host_cpu_pct)});
    t.AddRow({"4 VMs, 4 workers",
              StrFormat("%.1f", per_vm.iops / 1000.0),
              StrFormat("%.0f", per_vm.host_cpu_pct)});
  }

  t.Print();
  return 0;
}

}  // namespace
}  // namespace nvmetro::bench

int main(int argc, char** argv) { return nvmetro::bench::Main(argc, argv); }
