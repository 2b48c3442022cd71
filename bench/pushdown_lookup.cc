// bench/pushdown_lookup: pushdown point lookups via classifier
// resubmission chains (DESIGN.md §15) vs the route-only baseline.
//
// Two measurements, both gated (exit 2 on violation), written to
// BENCH_pushdown.json:
//   1. Guest-visible completions per lookup: exactly 1 with the
//      pushdown classifier vs `levels` reads for route-only.
//   2. Guest-visible lookup latency: the chain must beat the route-only
//      walk on every multi-level tree (it saves a vCQ post + interrupt +
//      guest resubmit per hop).
// The classifier engine's bit-identity with the interpreter is a ctest
// (PushdownEngineTest in tests/resubmit_test.cc).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "functions/classifiers.h"
#include "kv/pushdown.h"
#include "mem/address_space.h"
#include "nvme/prp.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::bench {
namespace {

using nvme::NvmeStatus;

struct Testbed {
  sim::Simulator sim;
  // Declared before the host: components cache registry pointers. The
  // --perfetto export reads the rings: keep 65,536 records per queue.
  obs::Observability obs{{.ring_capacity = usize{1} << 16}};
  mem::IommuSpace dma{nullptr, 1ull << 40};
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<core::NvmetroHost> host;
  core::VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;

  bool Build(const char* classifier_asm) {
    ssd::ControllerConfig cfg;
    cfg.capacity = 64 * MiB;
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    virt::VmConfig vm_cfg;
    vm_cfg.memory_bytes = 16 * MiB;
    vm = std::make_unique<virt::Vm>(&sim, vm_cfg);
    core::NvmetroHostConfig host_cfg;
    host_cfg.obs = &obs;
    host = std::make_unique<core::NvmetroHost>(&sim, phys.get(), host_cfg);
    vc = host->CreateController(vm.get(), {.vm_id = 1});
    auto prog = ebpf::Assemble(classifier_asm);
    if (!prog.ok()) {
      std::fprintf(stderr, "assemble: %s\n", prog.status().ToString().c_str());
      return false;
    }
    Status st = vc->InstallClassifier(std::move(*prog));
    if (!st.ok()) {
      std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
      return false;
    }
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    return driver->Init(1).ok();
  }

  /// One 4096-byte guest I/O; `key_arg` lands in cdw2/cdw3 (the lookup
  /// key for the pushdown classifier, ignored by everything else).
  /// Returns the completion's sim-time latency via *lat_ns.
  NvmeStatus BlockIo(u8 opcode, u64 lba, u64 key_arg, u8* data,
                     SimTime* lat_ns = nullptr) {
    mem::GuestMemory& gm = vm->memory();
    auto buf = gm.AllocPages(2);
    if (!buf.ok()) return 0xFFF;
    auto chain = nvme::BuildPrps(gm, *buf, kv::kPushdownBlockBytes);
    if (!chain.ok()) return 0xFFF;
    if (opcode == nvme::kCmdWrite) {
      (void)nvme::PrpWrite(gm, chain->prp1, chain->prp2,
                           kv::kPushdownBlockBytes, data);
    }
    nvme::Sqe sqe;
    sqe.opcode = opcode;
    sqe.nsid = 1;
    sqe.prp1 = chain->prp1;
    sqe.prp2 = chain->prp2;
    sqe.cdw2 = static_cast<u32>(key_arg);
    sqe.cdw3 = static_cast<u32>(key_arg >> 32);
    sqe.set_slba(lba);
    sqe.set_nlb0(kv::kPushdownLbasPerBlock - 1);
    NvmeStatus status = 0xFFF;
    SimTime start = sim.now(), done_at = start;
    driver->Submit(0, sqe, [&](NvmeStatus st, u32) {
      status = st;
      done_at = sim.now();
    });
    sim.Run();
    if (lat_ns) *lat_ns = done_at - start;
    if (status == nvme::kStatusSuccess && opcode == nvme::kCmdRead) {
      (void)nvme::PrpRead(gm, chain->prp1, chain->prp2,
                          kv::kPushdownBlockBytes, data);
    }
    nvme::FreePrpChain(gm, *chain);
    gm.FreePages(*buf, 2);
    return status;
  }

  bool LoadImage(const kv::PushdownIndex& idx) {
    for (u64 b = 0; b < idx.num_blocks(); b++) {
      std::vector<u8> block(
          idx.image.begin() + b * kv::kPushdownBlockBytes,
          idx.image.begin() + (b + 1) * kv::kPushdownBlockBytes);
      if (BlockIo(nvme::kCmdWrite, idx.base_lba + b * kv::kPushdownLbasPerBlock,
                  0, block.data()) != nvme::kStatusSuccess)
        return false;
    }
    return true;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct SizeResult {
  u64 keys = 0;
  u32 levels = 0;
  u64 blocks = 0;
  double push_med_ns = 0, route_med_ns = 0;
  double push_cpl_per_lookup = 0, route_cpl_per_lookup = 0;
  double resubmits_per_lookup = 0;
  bool values_ok = true;
};

/// Builds an index over `nkeys` keys, loads it into two fresh testbeds
/// (pushdown classifier vs passthrough) and times `lookups` point
/// lookups through each. When `prom_path` / `perfetto_path` are
/// non-empty the pushdown testbed's telemetry is exported after the
/// lookups, so CI can validate the resubmission series
/// (check_telemetry --expect-resubmit).
bool RunSize(u64 nkeys, u32 lookups, const std::string& prom_path,
             const std::string& perfetto_path, SizeResult* out) {
  std::vector<std::pair<u64, u64>> kvs;
  kvs.reserve(nkeys);
  for (u64 i = 0; i < nkeys; i++) kvs.push_back({i * 7 + 3, i * 31 + 11});
  kv::PushdownIndex idx = kv::BuildPushdownIndex(kvs, /*base_lba=*/0);
  out->keys = nkeys;
  out->levels = idx.levels;
  out->blocks = idx.num_blocks();

  // --- pushdown: one guest read per lookup, chain below the guest ---
  {
    Testbed tb;
    if (!tb.Build(functions::PushdownLookupClassifierAsm())) return false;
    if (!tb.LoadImage(idx)) return false;
    std::vector<double> lats;
    u64 cpl0 = tb.vc->requests_completed();
    u64 rs0 = tb.vc->resubmissions();
    std::vector<u8> page(kv::kPushdownBlockBytes);
    for (u32 i = 0; i < lookups; i++) {
      u64 key = kvs[(i * 2654435761u) % kvs.size()].first;
      SimTime lat = 0;
      if (tb.BlockIo(nvme::kCmdRead, idx.root_lba(), key, page.data(),
                     &lat) != nvme::kStatusSuccess)
        return false;
      u64 value = 0;
      if (!kv::PushdownLeafLookup(page.data(), key, &value) ||
          value != (key - 3) / 7 * 31 + 11)
        out->values_ok = false;
      lats.push_back(static_cast<double>(lat));
    }
    out->push_med_ns = Median(lats);
    out->push_cpl_per_lookup =
        static_cast<double>(tb.vc->requests_completed() - cpl0) / lookups;
    out->resubmits_per_lookup =
        static_cast<double>(tb.vc->resubmissions() - rs0) / lookups;
    if (!prom_path.empty() &&
        !WriteTelemetryFile(prom_path,
                            obs::ExportPrometheusText(tb.obs.metrics()),
                            "Prometheus metrics"))
      return false;
    if (!perfetto_path.empty() &&
        !WriteTelemetryFile(perfetto_path,
                            obs::ExportPerfettoJson(tb.obs.trace()),
                            "Perfetto trace"))
      return false;
  }

  // --- route-only: the guest walks the tree itself ---
  {
    Testbed tb;
    if (!tb.Build(functions::PassthroughClassifierAsm())) return false;
    if (!tb.LoadImage(idx)) return false;
    std::vector<double> lats;
    u64 cpl0 = tb.vc->requests_completed();
    std::vector<u8> page(kv::kPushdownBlockBytes);
    for (u32 i = 0; i < lookups; i++) {
      u64 key = kvs[(i * 2654435761u) % kvs.size()].first;
      u64 lba = idx.root_lba();
      double total = 0;
      for (;;) {
        SimTime lat = 0;
        if (tb.BlockIo(nvme::kCmdRead, lba, 0, page.data(), &lat) !=
            nvme::kStatusSuccess)
          return false;
        total += static_cast<double>(lat);
        if (kv::PushdownLevel(page.data()) == 0) break;
        u32 slot = kv::PushdownSearchBlock(page.data(), key);
        lba = kv::PushdownEntryVal(page.data(), slot);
      }
      u64 value = 0;
      if (!kv::PushdownLeafLookup(page.data(), key, &value) ||
          value != (key - 3) / 7 * 31 + 11)
        out->values_ok = false;
      lats.push_back(total);
    }
    out->route_med_ns = Median(lats);
    out->route_cpl_per_lookup =
        static_cast<double>(tb.vc->requests_completed() - cpl0) / lookups;
  }
  return true;
}

std::string ResultJson(const std::vector<SizeResult>& sizes, bool ok) {
  std::string json = "{\n  \"sizes\": [\n";
  for (usize i = 0; i < sizes.size(); i++) {
    const SizeResult& s = sizes[i];
    json += StrFormat(
        "    {\"keys\": %llu, \"levels\": %u, \"blocks\": %llu,\n"
        "     \"pushdown_median_ns\": %.0f, \"routeonly_median_ns\": "
        "%.0f,\n"
        "     \"pushdown_completions_per_lookup\": %.2f,\n"
        "     \"routeonly_completions_per_lookup\": %.2f,\n"
        "     \"resubmits_per_lookup\": %.2f, \"values_ok\": %s}%s\n",
        static_cast<unsigned long long>(s.keys), s.levels,
        static_cast<unsigned long long>(s.blocks), s.push_med_ns,
        s.route_med_ns, s.push_cpl_per_lookup, s.route_cpl_per_lookup,
        s.resubmits_per_lookup, s.values_ok ? "true" : "false",
        i + 1 < sizes.size() ? "," : "");
  }
  json += StrFormat("  ],\n  \"ok\": %s\n}\n", ok ? "true" : "false");
  return json;
}

int Main(int argc, const char* const* argv) {
  Flags flags;
  flags.DefineBool("sweep", false, "run all tree sizes");
  flags.DefineBool("quick", false, "smaller trees, fewer lookups");
  flags.DefineInt("lookups", 32, "point lookups per tree size");
  flags.DefineString("json", "BENCH_pushdown.json",
                     "output path for the result JSON (empty: none)");
  flags.DefineString("prom", "",
                     "export the pushdown testbed's Prometheus metrics here");
  flags.DefineString("perfetto", "",
                     "export the pushdown testbed's Perfetto trace here");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  bool quick = flags.GetBool("quick");
  u32 lookups = static_cast<u32>(flags.GetInt("lookups"));
  if (quick) lookups = std::min(lookups, 8u);

  std::vector<u64> sizes;
  if (flags.GetBool("sweep")) {
    sizes = quick ? std::vector<u64>{64, 8'000}
                  : std::vector<u64>{64, 8'000, 300'000};
  } else {
    sizes = {8'000};
  }

  std::printf("pushdown_lookup: resubmission-chain point lookups "
              "(DESIGN.md S15)\n\n");
  std::printf("%10s %7s %7s %14s %14s %8s %8s %9s\n", "keys", "levels",
              "blocks", "pushdown(ns)", "routeonly(ns)", "cpl/lk",
              "ro-cpl", "resub/lk");

  std::vector<SizeResult> results;
  bool gate_cpl = true, gate_lat = true, gate_values = true;
  for (u64 n : sizes) {
    SizeResult r;
    if (!RunSize(n, lookups, flags.GetString("prom"),
                 flags.GetString("perfetto"), &r)) {
      std::fprintf(stderr, "size %llu failed\n",
                   static_cast<unsigned long long>(n));
      return 1;
    }
    std::printf("%10llu %7u %7llu %14.0f %14.0f %8.2f %8.2f %9.2f\n",
                static_cast<unsigned long long>(r.keys), r.levels,
                static_cast<unsigned long long>(r.blocks), r.push_med_ns,
                r.route_med_ns, r.push_cpl_per_lookup,
                r.route_cpl_per_lookup, r.resubmits_per_lookup);
    if (r.push_cpl_per_lookup != 1.0 ||
        r.route_cpl_per_lookup != static_cast<double>(r.levels))
      gate_cpl = false;
    if (r.resubmits_per_lookup != static_cast<double>(r.levels - 1))
      gate_cpl = false;
    if (r.levels > 1 && r.push_med_ns >= r.route_med_ns) gate_lat = false;
    if (!r.values_ok) gate_values = false;
    results.push_back(r);
  }

  bool ok = gate_cpl && gate_lat && gate_values;
  const std::string json_path = flags.GetString("json");
  if (!json_path.empty() &&
      !WriteTelemetryFile(json_path, ResultJson(results, ok),
                          "pushdown lookup JSON")) {
    return 1;
  }
  std::printf("\ngates: completions=%s latency=%s values=%s\n",
              gate_cpl ? "ok" : "FAIL", gate_lat ? "ok" : "FAIL",
              gate_values ? "ok" : "FAIL");
  return ok ? 0 : 2;
}

}  // namespace
}  // namespace nvmetro::bench

int main(int argc, char** argv) { return nvmetro::bench::Main(argc, argv); }
