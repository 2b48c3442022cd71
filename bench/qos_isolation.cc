// Multi-tenant QoS isolation proof (DESIGN.md §12).
//
// Four tenants share one router worker and one physical drive under the
// token-bucket QoS scheduler: two latency-critical tenants with reserved
// token rates, one well-behaved best-effort tenant, and one misbehaving
// best-effort aggressor whose offered load ramps from its fair share to
// 40x the leftover pool. For each load level the bench measures every
// LC tenant's p999 completion latency against the gentle baseline.
//
// The isolation claim, checked per seed and written to BENCH_qos.json
// (--qos-json=): no ramp level may move any LC tenant's
// p999 by more than the pinned tolerance, the LC tenants never shed,
// their SLO watchdog windows never breach, and the aggressor absorbs
// every shed while still getting goodput (shed, not starved). --sweep
// repeats the proof over a deterministic multi-seed schedule and exits
// non-zero on any violation.
#include <cstdio>

#include "bench_common.h"
#include "common/rng.h"
#include "core/router.h"
#include "functions/classifiers.h"
#include "mem/address_space.h"
#include "obs/slo.h"
#include "qos/qos.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::bench {
namespace {

constexpr u32 kTenants = 4;  // 1,2 = LC; 3 = gentle BE; 4 = aggressor BE
constexpr u64 kDeviceTokensPerSec = 50'000;
constexpr u64 kLcReserved[2] = {15'000, 10'000};
constexpr double kLcOfferedIops[2] = {10'000, 5'000};
constexpr double kGentleBeIops = 5'000;
constexpr nvme::NvmeStatus kShedStatus =
    nvme::MakeStatus(nvme::kSctGeneric, nvme::kScNamespaceNotReady);

struct TenantStats {
  u64 submitted = 0;
  u64 ok = 0;
  u64 shed = 0;
  u64 other_fail = 0;
  u64 p999_ns = 0;
  u64 lat_count = 0;
  u64 sheds_accounted = 0;  // scheduler-side ledger
  u64 slo_breach_windows = 0;
  bool Balanced() const { return submitted == ok + shed + other_fail; }
};

struct ScenarioResult {
  TenantStats tenants[kTenants];
  u64 open_requests = 0;
  bool conserved = false;
  std::string conserve_err;
  bool books_ok = false;
};

/// One run: fixed LC + gentle-BE load, aggressor at `aggressor_iops`.
ScenarioResult RunScenario(u64 seed, SimTime horizon, double aggressor_iops,
                           const BenchOptions* telemetry) {
  obs::Observability obs(
      ObsConfigFor(telemetry ? *telemetry : BenchOptions{}));
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig ccfg;
  ccfg.capacity = 64 * MiB;
  ccfg.obs = &obs;
  // Quiesce the drive's own slow-op lottery (1.5% of ops at 2.6x): the
  // p999 deltas below must measure cross-tenant interference, not which
  // run's 0.1% tail happened to draw a firmware retry.
  ccfg.latency.slow_op_rate = 0.0;
  auto phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, ccfg);
  core::NvmetroHost::Config hcfg;
  hcfg.obs = &obs;
  hcfg.num_workers = 1;
  auto host = std::make_unique<core::NvmetroHost>(&sim, phys.get(), hcfg);

  qos::QosConfig qcfg;
  qcfg.device_tokens_per_sec = kDeviceTokensPerSec;
  qos::QosScheduler sched(qcfg, &obs);
  for (u32 i = 1; i <= kTenants; i++) {
    qos::TenantConfig t{.tenant_id = i};
    if (i <= 2) {
      t.cls = qos::TenantClass::kLatencyCritical;
      t.reserved_tokens_per_sec = kLcReserved[i - 1];
      t.slo_latency_ns = 1 * kMs;
    }
    Status st = sched.RegisterTenant(t);
    if (!st.ok()) {
      std::fprintf(stderr, "tenant %u: %s\n", i, st.ToString().c_str());
      return {};
    }
  }

  std::vector<std::unique_ptr<virt::Vm>> vms;
  std::vector<std::unique_ptr<virt::GuestNvmeDriver>> drivers;
  for (u32 i = 1; i <= kTenants; i++) {
    vms.push_back(std::make_unique<virt::Vm>(
        &sim, virt::VmConfig{.memory_bytes = 1 * MiB, .vcpus = 1}));
    core::VirtualController* vc =
        host->CreateController(vms.back().get(), {.vm_id = i});
    auto prog = functions::PassthroughClassifier();
    if (!prog.ok() || !vc->InstallClassifier(std::move(*prog)).ok()) {
      std::fprintf(stderr, "tenant %u: classifier install failed\n", i);
      return {};
    }
    vc->AttachQos(&sched, i);
  }
  host->Start();
  for (u32 i = 0; i < kTenants; i++) {
    drivers.push_back(std::make_unique<virt::GuestNvmeDriver>(
        vms[i].get(), host->controller(i)));
    if (!drivers.back()->Init(1).ok()) {
      std::fprintf(stderr, "tenant %u: driver init failed\n", i + 1);
      return {};
    }
  }

  obs::SloWatchdog slo(&obs.metrics(), &obs.flight(), {});
  sched.ArmSloTargets(&slo);
  slo.Start(0, horizon, [&](SimTime at, std::function<void()> fn) {
    sim.ScheduleAt(at, std::move(fn));
  });
  TelemetrySession session(&sim, &obs,
                           telemetry ? *telemetry : BenchOptions{});
  if (telemetry) session.Start(horizon + 10 * kMs);

  ScenarioResult out;
  Rng rng(seed);
  u64 bufs[kTenants];
  for (u32 i = 0; i < kTenants; i++) bufs[i] = *vms[i]->memory().AllocPages(1);
  auto drive = [&](u32 idx, double iops) {
    if (iops <= 0) return;
    TenantStats* book = &out.tenants[idx];
    SimTime interval = static_cast<SimTime>(1e9 / iops);
    SimTime t = 10 * kUs + static_cast<SimTime>(rng.NextBounded(interval));
    for (; t < horizon; t += interval) {
      u64 lba = rng.NextBounded(1'000);
      sim.ScheduleAt(t, [&drivers, idx, lba, book, &bufs] {
        book->submitted++;
        drivers[idx]->Submit(0, nvme::MakeRead(1, lba, 1, bufs[idx], 0),
                             [book](nvme::NvmeStatus st, u32) {
                               if (nvme::StatusOk(st)) {
                                 book->ok++;
                               } else if (st == kShedStatus) {
                                 book->shed++;
                               } else {
                                 book->other_fail++;
                               }
                             });
      });
    }
  };
  drive(0, kLcOfferedIops[0]);
  drive(1, kLcOfferedIops[1]);
  drive(2, kGentleBeIops);
  drive(3, aggressor_iops);
  sim.Run();

  out.books_ok = true;
  for (u32 i = 0; i < kTenants; i++) {
    TenantStats* t = &out.tenants[i];
    std::string base = "qos.tenant" + std::to_string(i + 1);
    if (const LatencyHistogram* h =
            obs.metrics().FindHistogram(base + ".latency_ns")) {
      t->p999_ns = h->Quantile(0.999);
      t->lat_count = h->count();
    }
    t->sheds_accounted = sched.sheds(i + 1);
    t->slo_breach_windows = slo.breach_windows(base);
    if (!t->Balanced()) out.books_ok = false;
  }
  out.open_requests = obs.trace().open_requests();
  out.conserved = sched.CheckConservation(&out.conserve_err);
  if (telemetry) session.Finish();
  return out;
}

struct LevelCheck {
  double offered_iops = 0;
  ScenarioResult r;
  bool isolated = true;
};

/// Runs baseline + ramp levels for one seed; appends table rows and a
/// JSON object; returns whether the seed stayed isolated.
bool RunSeed(u64 seed, SimTime horizon, const std::vector<double>& levels,
             u64 tolerance_ns, TablePrinter* table, std::string* json) {
  std::vector<LevelCheck> checks;
  for (double iops : levels) {
    LevelCheck c;
    c.offered_iops = iops;
    c.r = RunScenario(seed, horizon, iops, nullptr);
    checks.push_back(std::move(c));
  }
  const ScenarioResult& base = checks[0].r;
  bool seed_ok = true;
  *json += StrFormat("{\"seed\":%llu,\"levels\":[",
                     static_cast<unsigned long long>(seed));
  for (usize li = 0; li < checks.size(); li++) {
    LevelCheck& c = checks[li];
    const ScenarioResult& r = c.r;
    // Isolation invariants at every level (the baseline included).
    for (u32 lc = 0; lc < 2; lc++) {
      u64 p999 = r.tenants[lc].p999_ns;
      if (r.tenants[lc].lat_count == 0 ||
          p999 > base.tenants[lc].p999_ns + tolerance_ns) {
        c.isolated = false;
      }
      if (r.tenants[lc].sheds_accounted != 0 || r.tenants[lc].shed != 0 ||
          r.tenants[lc].slo_breach_windows != 0) {
        c.isolated = false;
      }
    }
    if (!r.books_ok || !r.conserved || r.open_requests != 0) {
      c.isolated = false;
    }
    // Shedding must land on the aggressor, and the aggressor still gets
    // goodput; router-side and scheduler-side shed ledgers must agree.
    const TenantStats& be = r.tenants[3];
    if (be.shed != be.sheds_accounted || be.ok == 0) c.isolated = false;
    if (li + 1 == checks.size() && be.shed == 0) c.isolated = false;
    seed_ok = seed_ok && c.isolated;

    double secs = static_cast<double>(horizon) / 1e9;
    table->AddRow(
        {StrFormat("%llu", static_cast<unsigned long long>(seed)),
         StrFormat("%.0fk", c.offered_iops / 1000.0),
         StrFormat("%.1f", r.tenants[0].p999_ns / 1000.0),
         StrFormat("%+.1f", (static_cast<double>(r.tenants[0].p999_ns) -
                             static_cast<double>(base.tenants[0].p999_ns)) /
                                1000.0),
         StrFormat("%.1f", r.tenants[1].p999_ns / 1000.0),
         StrFormat("%+.1f", (static_cast<double>(r.tenants[1].p999_ns) -
                             static_cast<double>(base.tenants[1].p999_ns)) /
                                1000.0),
         StrFormat("%.1f", be.ok / secs / 1000.0),
         StrFormat("%llu", static_cast<unsigned long long>(be.shed)),
         c.isolated ? "yes" : "NO"});
    if (li) *json += ",";
    *json += StrFormat(
        "{\"offered_iops\":%.0f,\"lc1_p999_ns\":%llu,\"lc1_delta_ns\":%lld,"
        "\"lc2_p999_ns\":%llu,\"lc2_delta_ns\":%lld,\"be_ok\":%llu,"
        "\"be_shed\":%llu,\"lc_sheds\":%llu,\"isolated\":%s}",
        c.offered_iops,
        static_cast<unsigned long long>(r.tenants[0].p999_ns),
        static_cast<long long>(r.tenants[0].p999_ns) -
            static_cast<long long>(base.tenants[0].p999_ns),
        static_cast<unsigned long long>(r.tenants[1].p999_ns),
        static_cast<long long>(r.tenants[1].p999_ns) -
            static_cast<long long>(base.tenants[1].p999_ns),
        static_cast<unsigned long long>(be.ok),
        static_cast<unsigned long long>(be.shed),
        static_cast<unsigned long long>(r.tenants[0].sheds_accounted +
                                        r.tenants[1].sheds_accounted),
        c.isolated ? "true" : "false");
  }
  *json += StrFormat("],\"isolated\":%s}", seed_ok ? "true" : "false");
  return seed_ok;
}

int Main(int argc, const char* const* argv) {
  Flags flags;
  flags.DefineBool("sweep", false,
                   "multi-seed isolation proof (CI mode): exits non-zero "
                   "if any seed's LC p999 moves past the tolerance");
  flags.DefineInt("seeds", 10, "seed count for --sweep");
  flags.DefineInt("seed", 1, "seed for the single-seed run");
  flags.DefineInt("duration-ms", 40, "offered-load horizon per run");
  flags.DefineBool("quick", false, "shorter horizon, fewer ramp levels");
  flags.DefineInt("tolerance-us", 25,
                  "pinned LC p999 shift tolerance vs. the gentle baseline");
  flags.DefineString("qos-json", "BENCH_qos.json",
                     "machine-readable result file ('' = skip)");
  flags.DefineBool("csv", false, "CSV output");
  flags.DefineString("perfetto", "",
                     "write a Perfetto trace of one overload run");
  flags.DefineString("prom", "",
                     "write per-tenant Prometheus metrics of one overload "
                     "run");
  flags.DefineString("timeseries", "", "write a time-series CSV");
  flags.DefineInt("timeseries-interval-us", 1000,
                  "time-series sampling window (microseconds)");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  const bool quick = flags.GetBool("quick");
  const SimTime horizon =
      (quick ? 15 : flags.GetInt("duration-ms")) * kMs;
  const u64 tolerance_ns = static_cast<u64>(flags.GetInt("tolerance-us")) * kUs;
  // Baseline first: the aggressor at its fair share, then ramping to
  // 40x the leftover pool's refill rate.
  std::vector<double> levels = quick
                                   ? std::vector<double>{5'000, 200'000}
                                   : std::vector<double>{5'000, 20'000,
                                                         80'000, 200'000};
  std::vector<u64> seeds;
  if (flags.GetBool("sweep")) {
    for (u64 s = 1; s <= static_cast<u64>(flags.GetInt("seeds")); s++) {
      seeds.push_back(s);
    }
  } else {
    seeds.push_back(static_cast<u64>(flags.GetInt("seed")));
  }

  PrintHeader(
      "QoS isolation: misbehaving tenant vs. LC tail latency",
      StrFormat("device %lluk tokens/s, LC reserved %lluk+%lluk, "
                "BE aggressor ramp, %llums horizon, tolerance %lluus",
                static_cast<unsigned long long>(kDeviceTokensPerSec / 1000),
                static_cast<unsigned long long>(kLcReserved[0] / 1000),
                static_cast<unsigned long long>(kLcReserved[1] / 1000),
                static_cast<unsigned long long>(horizon / kMs),
                static_cast<unsigned long long>(tolerance_ns / kUs)));
  TablePrinter table({"seed", "be_offered", "lc1_p999_us", "d1_us",
                      "lc2_p999_us", "d2_us", "be_good_kiops", "be_shed",
                      "isolated"});
  std::string json = StrFormat(
      "{\"bench\":\"qos_isolation\",\"device_tokens_per_sec\":%llu,"
      "\"lc_reserved_tokens_per_sec\":[%llu,%llu],\"duration_ms\":%llu,"
      "\"tolerance_ns\":%llu,\"seeds\":[",
      static_cast<unsigned long long>(kDeviceTokensPerSec),
      static_cast<unsigned long long>(kLcReserved[0]),
      static_cast<unsigned long long>(kLcReserved[1]),
      static_cast<unsigned long long>(horizon / kMs),
      static_cast<unsigned long long>(tolerance_ns));
  u64 violations = 0;
  for (usize i = 0; i < seeds.size(); i++) {
    if (i) json += ",";
    if (!RunSeed(seeds[i], horizon, levels, tolerance_ns, &table, &json)) {
      violations++;
    }
  }
  json += StrFormat("],\"seeds_run\":%zu,\"all_isolated\":%s}\n",
                    seeds.size(), violations == 0 ? "true" : "false");

  if (flags.GetBool("csv")) {
    std::fputs(table.RenderCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  std::printf("isolation: %zu seed(s), %llu violation(s)\n", seeds.size(),
              static_cast<unsigned long long>(violations));

  const std::string json_path = flags.GetString("qos-json");
  if (!json_path.empty()) {
    if (!WriteTelemetryFile(json_path, json, "QoS isolation JSON")) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Optional telemetry exports from one dedicated overload run, so the
  // CI job can validate per-tenant Prometheus series and QoS trace
  // spans with tools/check_telemetry.
  BenchOptions telem;
  telem.perfetto_path = flags.GetString("perfetto");
  telem.prom_path = flags.GetString("prom");
  telem.timeseries_path = flags.GetString("timeseries");
  telem.timeseries_interval =
      static_cast<SimTime>(flags.GetInt("timeseries-interval-us")) * kUs;
  if (!telem.perfetto_path.empty() || !telem.prom_path.empty() ||
      !telem.timeseries_path.empty()) {
    RunScenario(seeds[0], horizon, levels.back(), &telem);
  }

  return violations == 0 ? 0 : 2;
}

}  // namespace
}  // namespace nvmetro::bench

int main(int argc, char** argv) { return nvmetro::bench::Main(argc, argv); }
