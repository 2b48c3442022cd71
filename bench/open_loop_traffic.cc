// Open-loop production traffic + overload control proof (DESIGN.md §13).
//
// Every other bench is closed-loop; this one drives the multi-tenant
// QoS stack with the open-loop generator (src/workload/openloop.h):
// per-tenant Poisson arrivals under a diurnal envelope, so offered load
// is independent of service capacity and true overload is reachable.
// Two experiments per seed, each with the overload controller attached
// and detached:
//
//  - Hockey stick: aggregate offered load sweeps from well below device
//    capacity to 2.5x over it; per level the bench records goodput and
//    per-tenant p99/p999 — the classic flat-then-vertical tail curve,
//    and the controller's bounded-queue version of it.
//
//  - Burst recovery: steady load at 60% capacity, then one best-effort
//    tenant bursts 10x for a fixed window (1.5x capacity offered).
//    Time-to-recover is the shared bench_common definition — first
//    best-effort completion after the burst clears that is both OK and
//    under the latency bar — measured controller-on vs controller-off.
//
// Invariants checked per seed (--sweep exits 2 on violation):
//   - with the controller on, LC p999 stays under target through the
//     10x burst and the controller demonstrably engaged (transitions,
//     sheds, degradation hooks);
//   - controller-on goodput at 2x offered load >= 90% of peak goodput;
//   - time-to-recover with the controller is strictly smaller than
//     without it;
//   - every run keeps exact books (submitted == ok + shed + failed per
//     tenant), the token ledger conserves, and no trace span leaks.
//
// Headline artifact: BENCH_traffic.json (--traffic-json=).
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/router.h"
#include "fault/fault.h"
#include "functions/classifiers.h"
#include "mem/address_space.h"
#include "obs/slo.h"
#include "overload/overload.h"
#include "qos/qos.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"
#include "workload/openloop.h"

namespace nvmetro::bench {
namespace {

using overload::OverloadController;
using workload::Arrival;
using workload::OpenLoopConfig;
using workload::OpenLoopGenerator;
using workload::TenantLoad;

constexpr u32 kTenants = 4;  // 1,2 = LC; 3 = gentle BE; 4 = bursty BE
constexpr u64 kDeviceTokensPerSec = 50'000;
constexpr u64 kLcReserved[2] = {15'000, 10'000};
// Hockey-stick base shares: sum == device capacity at factor 1.0.
constexpr double kBaseShare[kTenants] = {18'000, 12'000, 12'000, 8'000};
// Burst-recovery steady shares (60% capacity) and the 10x burst.
constexpr double kRecoveryShare[kTenants] = {12'000, 8'000, 5'000, 5'000};
constexpr double kBurstMultiplier = 10.0;
constexpr u64 kLcSloNs = 2 * kMs;        // LC p999 target (watchdog + check)
constexpr u64 kRecoverLatNs = 1 * kMs;   // "good IO" bar for TTR
constexpr u32 kOutstandingCap = 256;     // open-loop client concurrency cap
constexpr nvme::NvmeStatus kShedStatus =
    nvme::MakeStatus(nvme::kSctGeneric, nvme::kScNamespaceNotReady);

obs::TelemetryScheduler SimScheduler(sim::Simulator* sim) {
  return [sim](SimTime at, std::function<void()> fn) {
    sim->ScheduleAt(at, std::move(fn));
  };
}

overload::OverloadConfig ControllerConfig() {
  overload::OverloadConfig ocfg;
  ocfg.device_tokens_per_sec = kDeviceTokensPerSec;
  ocfg.backpressure_enter_ns = 300 * kUs;
  ocfg.brownout_enter_ns = 1 * kMs;
  ocfg.shed_enter_ns = 2 * kMs;
  ocfg.cooldown_ns = 500 * kUs;
  ocfg.eval_period_ns = 100 * kUs;
  // Pace floor above the steady BE offered load (10k of 50k): pacing
  // must squeeze bursts, not starve the baseline — a floor below the
  // baseline rate would re-queue steady traffic and hold the delay
  // signal up after the burst has cleared.
  ocfg.min_be_fraction = 0.25;
  ocfg.additive_step = 0.1;
  return ocfg;
}

struct TenantBook {
  u64 submitted = 0;
  u64 ok = 0;
  u64 shed = 0;
  u64 other_fail = 0;
  u64 cap_dropped = 0;  // open-loop client hit the outstanding cap
  u64 p99_ns = 0;
  u64 p999_ns = 0;
  u64 lat_count = 0;
  bool Balanced() const { return submitted == ok + shed + other_fail; }
};

struct RunResult {
  TenantBook t[kTenants];
  double goodput_iops = 0;
  u64 open_requests = 0;
  bool books_ok = false;
  bool conserved = false;
  std::string conserve_err;
  u64 lc_breach_windows = 0;
  // Controller engagement (zero when detached).
  u64 transitions = 0;      // into non-Normal states
  u64 ovl_sheds = 0;
  u64 ovl_paced = 0;
  bool degradation_fired = false;
  bool degradation_cleared = false;
  i64 ttr_ns = -2;  // -2 = run had no burst window
};

struct Scenario {
  u64 seed = 1;
  SimTime horizon = 40 * kMs;
  double scale = 1.0;       // hockey-stick factor over kBaseShare
  bool recovery = false;    // burst-recovery shape instead of the sweep
  SimTime burst_at = 0;
  SimTime burst_for = 0;
  SimTime diurnal_period = 0;
  bool controller = false;
  /// Device faults concurrent with the traffic burst (the combined
  /// overload+fault run, `--fault`): random command stalls plus an
  /// SQ-full burst overlapping the 10x window.
  bool faults = false;
  const BenchOptions* telemetry = nullptr;
};

RunResult RunScenario(const Scenario& sc) {
  obs::Observability obs(
      ObsConfigFor(sc.telemetry ? *sc.telemetry : BenchOptions{}));
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig ccfg;
  ccfg.capacity = 64 * MiB;
  ccfg.obs = &obs;
  // As in qos_isolation: measure queueing policy, not the drive's own
  // slow-op tail lottery.
  ccfg.latency.slow_op_rate = 0.0;
  auto phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, ccfg);
  fault::FaultInjector injector(&sim, &obs);
  if (sc.faults) {
    phys->SetFaultInjector(&injector);
    fault::FaultPlan plan;
    plan.seed = sc.seed;
    fault::FaultSpec stall;
    stall.kind = fault::FaultKind::kCommandStall;
    stall.count = 4;
    stall.probability = 0.002;
    plan.faults.push_back(stall);
    fault::FaultSpec sq_full;
    sq_full.kind = fault::FaultKind::kSqFullBurst;
    sq_full.at_ns = sc.burst_at + sc.burst_for / 4;  // inside the 10x window
    sq_full.duration_ns = 2 * kMs;
    plan.faults.push_back(sq_full);
    injector.Arm(plan);
  }
  core::NvmetroHost::Config hcfg;
  hcfg.obs = &obs;
  hcfg.num_workers = 1;
  if (sc.faults) {
    hcfg.costs.request_timeout_ns = 2 * kMs;
    hcfg.costs.max_retries = 2;
  }
  auto host = std::make_unique<core::NvmetroHost>(&sim, phys.get(), hcfg);

  qos::QosConfig qcfg;
  qcfg.device_tokens_per_sec = kDeviceTokensPerSec;
  qos::QosScheduler qos(qcfg, &obs);
  for (u32 i = 1; i <= kTenants; i++) {
    qos::TenantConfig t{.tenant_id = i};
    if (i <= 2) {
      t.cls = qos::TenantClass::kLatencyCritical;
      t.reserved_tokens_per_sec = kLcReserved[i - 1];
      t.slo_latency_ns = kLcSloNs;
    }
    Status st = qos.RegisterTenant(t);
    if (!st.ok()) {
      std::fprintf(stderr, "tenant %u: %s\n", i, st.ToString().c_str());
      return {};
    }
  }

  RunResult out;
  std::unique_ptr<OverloadController> ovl;
  if (sc.controller) {
    ovl = std::make_unique<OverloadController>(ControllerConfig(), &obs);
    for (u32 i = 1; i <= kTenants; i++) ovl->RegisterTenant(i, i > 2);
    // Degradation hooks: stand-ins for "disable resync pacing" /
    // "downshift trace sampling" — the bench proves the contract (fired
    // on Brownout entry, cleared symmetrically on recovery).
    ovl->RegisterDegradation("resync_pacing", [&out](bool on) {
      if (on) out.degradation_fired = true;
      else out.degradation_cleared = true;
    });
    ovl->RegisterDegradation("trace_downshift", [](bool) {});
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
    vc->AttachQos(&qos, i);
    if (ovl) vc->AttachOverload(ovl.get());
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

  const SimTime slack = 30 * kMs;  // drain + recovery window past arrivals
  obs::SloWatchdog slo(&obs.metrics(), &obs.flight(), {});
  qos.ArmSloTargets(&slo);
  if (ovl) ovl->ArmSloTargets(&slo, 0.5);
  slo.Start(0, sc.horizon + slack, SimScheduler(&sim));
  if (ovl) ovl->Start(0, sc.horizon + slack, SimScheduler(&sim));
  TelemetrySession session(&sim, &obs,
                           sc.telemetry ? *sc.telemetry : BenchOptions{});
  if (sc.telemetry) session.Start(sc.horizon + slack);

  // --- Open-loop arrival stream -------------------------------------------
  OpenLoopConfig gcfg;
  gcfg.seed = sc.seed;
  gcfg.horizon_ns = sc.horizon;
  for (u32 i = 0; i < kTenants; i++) {
    TenantLoad load;
    load.tenant_id = i + 1;
    load.base_iops = sc.recovery ? kRecoveryShare[i] : kBaseShare[i] * sc.scale;
    load.write_fraction = 0.0;  // reads: cost == 1 token, capacity exact
    load.first_lba = static_cast<u64>(i) * 16384;
    load.region_nlb = 16384;
    // Mixed sizes within one 4 KiB page (both cost one token, so the
    // token capacity stays exactly kDeviceTokensPerSec IOPS).
    load.mix = {{1, 3}, {8, 1}};
    if (sc.diurnal_period) {
      load.diurnal_amplitude = 0.15;
      load.diurnal_period_ns = sc.diurnal_period;
    }
    if (sc.recovery && i == 3) {
      load.burst_multiplier = kBurstMultiplier;
      load.forced_burst_at_ns = sc.burst_at;
      load.forced_burst_duration_ns = sc.burst_for;
    }
    gcfg.tenants.push_back(load);
  }
  OpenLoopGenerator gen(gcfg);

  RecoveryTracker recovery(sc.burst_at + sc.burst_for, kRecoverLatNs);
  u64 bufs[kTenants];
  u32 outstanding[kTenants] = {};
  for (u32 i = 0; i < kTenants; i++) bufs[i] = *vms[i]->memory().AllocPages(1);

  Arrival a;
  while (gen.Next(&a)) {
    u32 idx = a.tenant_id - 1;
    TenantBook* book = &out.t[idx];
    sim.ScheduleAt(a.at, [&sim, &drivers, &recovery, &outstanding, &bufs, sc,
                          book, idx, a] {
      // The open-loop client caps its own concurrency, not its rate:
      // past the cap an arrival is lost, never rescheduled.
      if (outstanding[idx] >= kOutstandingCap) {
        book->cap_dropped++;
        return;
      }
      outstanding[idx]++;
      book->submitted++;
      SimTime submit_ns = sim.now();
      drivers[idx]->Submit(
          0, nvme::MakeRead(1, a.slba, static_cast<u16>(a.nlb), bufs[idx], 0),
          [&sim, &recovery, &outstanding, book, idx, submit_ns,
           sc](nvme::NvmeStatus st, u32) {
            outstanding[idx]--;
            bool ok = nvme::StatusOk(st);
            if (ok) {
              book->ok++;
            } else if (st == kShedStatus) {
              book->shed++;
            } else {
              book->other_fail++;
            }
            // TTR is measured on the burst's victims: the best-effort
            // cohort (the LC tenants never lose their reservation).
            if (sc.recovery && idx >= 2) {
              recovery.OnCompletion(sim.now(), ok, sim.now() - submit_ns);
            }
          });
    });
  }
  sim.Run();

  out.books_ok = true;
  u64 total_ok = 0;
  for (u32 i = 0; i < kTenants; i++) {
    TenantBook* t = &out.t[i];
    std::string base = "qos.tenant" + std::to_string(i + 1);
    if (const LatencyHistogram* h =
            obs.metrics().FindHistogram(base + ".latency_ns")) {
      t->p99_ns = h->Quantile(0.99);
      t->p999_ns = h->Quantile(0.999);
      t->lat_count = h->count();
    }
    if (!t->Balanced()) out.books_ok = false;
    total_ok += t->ok;
    if (i < 2) out.lc_breach_windows += slo.breach_windows(base);
  }
  out.goodput_iops = static_cast<double>(total_ok) * 1e9 /
                     static_cast<double>(sc.horizon);
  out.open_requests = obs.trace().open_requests();
  out.conserved = qos.CheckConservation(&out.conserve_err);
  if (ovl) {
    out.transitions = ovl->transitions(overload::State::kBackpressure) +
                      ovl->transitions(overload::State::kBrownout) +
                      ovl->transitions(overload::State::kShed);
    out.ovl_sheds = ovl->sheds();
    out.ovl_paced = ovl->paced();
  }
  if (sc.recovery) out.ttr_ns = recovery.time_to_recover_ns();
  if (sc.telemetry) session.Finish();
  return out;
}

struct SeedOutcome {
  bool ok = true;
  std::string why;
  void Fail(const std::string& reason) {
    ok = false;
    if (!why.empty()) why += "; ";
    why += reason;
  }
};

bool RunBooksOk(const RunResult& r) {
  return r.books_ok && r.conserved && r.open_requests == 0;
}

/// Runs the full hockey-stick + recovery matrix for one seed.
bool RunSeed(u64 seed, SimTime horizon, const std::vector<double>& levels,
             double two_x_level, TablePrinter* table, std::string* json) {
  SeedOutcome outcome;
  Scenario sc;
  sc.seed = seed;
  sc.horizon = horizon;
  sc.diurnal_period = horizon / 2;  // one compressed day-and-night cycle

  *json += StrFormat("{\"seed\":%llu,\"levels\":[",
                     static_cast<unsigned long long>(seed));
  double peak_on = 0, good_at_2x = -1;
  for (usize li = 0; li < levels.size(); li++) {
    sc.scale = levels[li];
    sc.recovery = false;
    sc.controller = false;
    RunResult off = RunScenario(sc);
    sc.controller = true;
    RunResult on = RunScenario(sc);
    if (!RunBooksOk(off) || !RunBooksOk(on)) {
      outcome.Fail(StrFormat("level %.2f books/ledger/open-span violation",
                             sc.scale));
    }
    peak_on = std::max(peak_on, on.goodput_iops);
    if (sc.scale == two_x_level) good_at_2x = on.goodput_iops;
    double offered = 0;
    for (double s : kBaseShare) offered += s * sc.scale;
    table->AddRow(
        {StrFormat("%llu", static_cast<unsigned long long>(seed)),
         StrFormat("%.1fx", sc.scale),
         StrFormat("%.1fk", off.goodput_iops / 1000.0),
         StrFormat("%.1fk", on.goodput_iops / 1000.0),
         StrFormat("%.0f", off.t[0].p999_ns / 1000.0),
         StrFormat("%.0f", on.t[0].p999_ns / 1000.0),
         StrFormat("%.0f", off.t[2].p99_ns / 1000.0),
         StrFormat("%.0f", on.t[2].p99_ns / 1000.0),
         StrFormat("%llu", static_cast<unsigned long long>(on.ovl_sheds))});
    if (li) *json += ",";
    *json += StrFormat(
        "{\"scale\":%.2f,\"offered_iops\":%.0f,"
        "\"off\":{\"goodput_iops\":%.0f,\"lc1_p999_ns\":%llu,"
        "\"lc2_p999_ns\":%llu,\"be3_p99_ns\":%llu},"
        "\"on\":{\"goodput_iops\":%.0f,\"lc1_p999_ns\":%llu,"
        "\"lc2_p999_ns\":%llu,\"be3_p99_ns\":%llu,\"ovl_sheds\":%llu,"
        "\"ovl_paced\":%llu,\"transitions\":%llu}}",
        sc.scale, offered, off.goodput_iops,
        static_cast<unsigned long long>(off.t[0].p999_ns),
        static_cast<unsigned long long>(off.t[1].p999_ns),
        static_cast<unsigned long long>(off.t[2].p99_ns), on.goodput_iops,
        static_cast<unsigned long long>(on.t[0].p999_ns),
        static_cast<unsigned long long>(on.t[1].p999_ns),
        static_cast<unsigned long long>(on.t[2].p99_ns),
        static_cast<unsigned long long>(on.ovl_sheds),
        static_cast<unsigned long long>(on.ovl_paced),
        static_cast<unsigned long long>(on.transitions));
  }
  if (good_at_2x >= 0 && good_at_2x < 0.9 * peak_on) {
    outcome.Fail(StrFormat("goodput at 2x (%.0f) < 90%% of peak (%.0f)",
                           good_at_2x, peak_on));
  }

  // --- Burst recovery ------------------------------------------------------
  sc.recovery = true;
  sc.scale = 1.0;
  sc.diurnal_period = 0;
  sc.burst_at = horizon * 3 / 10;
  sc.burst_for = 10 * kMs;
  if (sc.burst_at + sc.burst_for + 15 * kMs > horizon) {
    sc.burst_for = horizon > sc.burst_at + 15 * kMs
                       ? horizon - sc.burst_at - 15 * kMs
                       : horizon / 4;
  }
  sc.controller = false;
  RunResult roff = RunScenario(sc);
  sc.controller = true;
  RunResult ron = RunScenario(sc);
  if (!RunBooksOk(roff) || !RunBooksOk(ron)) {
    outcome.Fail("recovery run books/ledger/open-span violation");
  }
  // The controller must demonstrably engage under the 10x burst...
  if (ron.transitions == 0) outcome.Fail("controller never left Normal");
  if (!ron.degradation_fired || !ron.degradation_cleared) {
    outcome.Fail("degradation hooks did not fire and clear");
  }
  // ...protect the LC tenants through it...
  for (u32 lc = 0; lc < 2; lc++) {
    if (ron.t[lc].lat_count == 0 || ron.t[lc].p999_ns > kLcSloNs) {
      outcome.Fail(StrFormat("LC%u p999 %.0fus over target under burst", lc + 1,
                             ron.t[lc].p999_ns / 1000.0));
    }
  }
  if (ron.lc_breach_windows != 0) outcome.Fail("LC SLO windows breached");
  // ...and strictly beat the uncontrolled stack back to good service.
  if (ron.ttr_ns < 0 || roff.ttr_ns < 0) {
    outcome.Fail("a recovery run never recovered");
  } else if (ron.ttr_ns >= roff.ttr_ns) {
    outcome.Fail(StrFormat("TTR on (%.2fms) not < TTR off (%.2fms)",
                           ron.ttr_ns / 1e6, roff.ttr_ns / 1e6));
  }
  table->AddRow({StrFormat("%llu", static_cast<unsigned long long>(seed)),
                 "burst", "-", "-",
                 StrFormat("%.0f", roff.t[0].p999_ns / 1000.0),
                 StrFormat("%.0f", ron.t[0].p999_ns / 1000.0),
                 StrFormat("%.0f", roff.ttr_ns / 1e3),
                 StrFormat("%.0f", ron.ttr_ns / 1e3),
                 StrFormat("%llu",
                           static_cast<unsigned long long>(ron.ovl_sheds))});
  *json += StrFormat(
      "],\"recovery\":{\"burst_multiplier\":%.0f,\"burst_ms\":%llu,"
      "\"ttr_off_ns\":%lld,\"ttr_on_ns\":%lld,\"lc1_p999_on_ns\":%llu,"
      "\"lc2_p999_on_ns\":%llu,\"transitions_on\":%llu,\"ovl_sheds_on\":%llu,"
      "\"degradation_fired\":%s},\"ok\":%s%s%s}",
      kBurstMultiplier, static_cast<unsigned long long>(sc.burst_for / kMs),
      static_cast<long long>(roff.ttr_ns), static_cast<long long>(ron.ttr_ns),
      static_cast<unsigned long long>(ron.t[0].p999_ns),
      static_cast<unsigned long long>(ron.t[1].p999_ns),
      static_cast<unsigned long long>(ron.transitions),
      static_cast<unsigned long long>(ron.ovl_sheds),
      ron.degradation_fired ? "true" : "false",
      outcome.ok ? "true" : "false",
      outcome.ok ? "" : ",\"why\":\"", outcome.ok ? "" : (outcome.why + "\"").c_str());
  if (!outcome.ok) {
    std::fprintf(stderr, "seed %llu FAILED: %s\n",
                 static_cast<unsigned long long>(seed), outcome.why.c_str());
  }
  return outcome.ok;
}

int Main(int argc, const char* const* argv) {
  Flags flags;
  flags.DefineBool("sweep", false,
                   "multi-seed overload proof (CI mode): exits non-zero on "
                   "any invariant violation");
  flags.DefineInt("seeds", 10, "seed count for --sweep");
  flags.DefineInt("seed", 1, "seed for the single-seed run");
  flags.DefineInt("duration-ms", 40, "arrival horizon per run");
  flags.DefineBool("quick", false, "2 levels + shorter horizon");
  flags.DefineBool("fault", false,
                   "combined overload+fault run: command "
                   "stalls + an SQ-full burst inside the 10x window, "
                   "controller on; checks books, ledger and recovery");
  flags.DefineString("traffic-json", "BENCH_traffic.json",
                     "machine-readable result file ('' = skip)");
  flags.DefineBool("csv", false, "CSV output");
  flags.DefineString("perfetto", "",
                     "write a Perfetto trace of one controller-on burst run");
  flags.DefineString("prom", "",
                     "write Prometheus metrics of one controller-on burst "
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
  const SimTime horizon = (quick ? 30 : flags.GetInt("duration-ms")) * kMs;
  const double two_x = 2.0;
  std::vector<double> levels =
      quick ? std::vector<double>{0.5, two_x}
            : std::vector<double>{0.4, 0.8, 1.0, 1.4, two_x, 2.5};
  std::vector<u64> seeds;
  if (flags.GetBool("sweep")) {
    for (u64 s = 1; s <= static_cast<u64>(flags.GetInt("seeds")); s++) {
      seeds.push_back(s);
    }
  } else {
    seeds.push_back(static_cast<u64>(flags.GetInt("seed")));
  }

  PrintHeader(
      "Open-loop traffic: overload control vs. uncontrolled queues",
      StrFormat("device %lluk tokens/s, LC reserved %lluk+%lluk, offered "
                "%.1fx-%.1fx + 10x burst, %llums horizon",
                static_cast<unsigned long long>(kDeviceTokensPerSec / 1000),
                static_cast<unsigned long long>(kLcReserved[0] / 1000),
                static_cast<unsigned long long>(kLcReserved[1] / 1000),
                levels.front(), levels.back(),
                static_cast<unsigned long long>(horizon / kMs)));
  std::printf("(rows: sweep levels show p999/p99 us; the burst row shows "
              "TTR off/on in us)\n");
  TablePrinter table({"seed", "offered", "off_good", "on_good", "lc1_off",
                      "lc1_on", "be3_off", "be3_on", "ovl_shed"});
  std::string json = StrFormat(
      "{\"bench\":\"open_loop_traffic\",\"device_tokens_per_sec\":%llu,"
      "\"lc_reserved_tokens_per_sec\":[%llu,%llu],\"duration_ms\":%llu,"
      "\"lc_slo_ns\":%llu,\"recover_lat_ns\":%llu,\"seeds\":[",
      static_cast<unsigned long long>(kDeviceTokensPerSec),
      static_cast<unsigned long long>(kLcReserved[0]),
      static_cast<unsigned long long>(kLcReserved[1]),
      static_cast<unsigned long long>(horizon / kMs),
      static_cast<unsigned long long>(kLcSloNs),
      static_cast<unsigned long long>(kRecoverLatNs));
  u64 violations = 0;
  if (flags.GetBool("fault")) {
    // Combined overload+fault mode: the burst-recovery scenario with the
    // controller on while the device itself misbehaves. The TTR-on <
    // TTR-off comparison is meaningless under random stalls; what must
    // hold is that the books stay exact, the ledger conserves, the
    // controller still engages, and the best-effort cohort still
    // recovers to sub-SLO service after the burst clears.
    for (usize i = 0; i < seeds.size(); i++) {
      Scenario sc;
      sc.seed = seeds[i];
      sc.horizon = horizon;
      sc.recovery = true;
      sc.burst_at = horizon * 3 / 10;
      sc.burst_for = 10 * kMs;
      sc.controller = true;
      sc.faults = true;
      RunResult r = RunScenario(sc);
      bool ok = RunBooksOk(r) && r.transitions > 0 && r.ttr_ns >= 0 &&
                r.degradation_fired && r.degradation_cleared;
      if (!ok) {
        violations++;
        std::fprintf(stderr,
                     "seed %llu FAILED (fault mode): books=%d conserved=%d "
                     "open=%llu transitions=%llu ttr=%lld %s\n",
                     static_cast<unsigned long long>(seeds[i]), r.books_ok,
                     r.conserved,
                     static_cast<unsigned long long>(r.open_requests),
                     static_cast<unsigned long long>(r.transitions),
                     static_cast<long long>(r.ttr_ns),
                     r.conserve_err.c_str());
      }
      table.AddRow(
          {StrFormat("%llu", static_cast<unsigned long long>(seeds[i])),
           "fault", "-", "-", StrFormat("%.0f", r.t[0].p999_ns / 1000.0),
           StrFormat("%.0f", r.t[1].p999_ns / 1000.0), "-",
           StrFormat("%.0f", static_cast<double>(r.ttr_ns) / 1e3),
           StrFormat("%llu", static_cast<unsigned long long>(r.ovl_sheds))});
      if (i) json += ",";
      json += StrFormat(
          "{\"seed\":%llu,\"fault\":true,\"ttr_ns\":%lld,"
          "\"transitions\":%llu,\"ovl_sheds\":%llu,\"ok\":%s}",
          static_cast<unsigned long long>(seeds[i]),
          static_cast<long long>(r.ttr_ns),
          static_cast<unsigned long long>(r.transitions),
          static_cast<unsigned long long>(r.ovl_sheds),
          ok ? "true" : "false");
    }
  } else {
    for (usize i = 0; i < seeds.size(); i++) {
      if (i) json += ",";
      if (!RunSeed(seeds[i], horizon, levels, two_x, &table, &json)) {
        violations++;
      }
    }
  }
  json += StrFormat("],\"seeds_run\":%zu,\"all_ok\":%s}\n", seeds.size(),
                    violations == 0 ? "true" : "false");

  if (flags.GetBool("csv")) {
    std::fputs(table.RenderCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  std::printf("overload proof: %zu seed(s), %llu violation(s)\n", seeds.size(),
              static_cast<unsigned long long>(violations));

  const std::string json_path = flags.GetString("traffic-json");
  if (!json_path.empty()) {
    if (!WriteTelemetryFile(json_path, json, "open-loop traffic JSON")) {
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Telemetry exports from one dedicated controller-on burst run so CI
  // can validate overload metrics/spans with check_telemetry.
  BenchOptions telem;
  telem.perfetto_path = flags.GetString("perfetto");
  telem.prom_path = flags.GetString("prom");
  telem.timeseries_path = flags.GetString("timeseries");
  telem.timeseries_interval =
      static_cast<SimTime>(flags.GetInt("timeseries-interval-us")) * kUs;
  if (!telem.perfetto_path.empty() || !telem.prom_path.empty() ||
      !telem.timeseries_path.empty()) {
    Scenario sc;
    sc.seed = seeds[0];
    sc.horizon = horizon;
    sc.recovery = true;
    sc.burst_at = horizon * 3 / 10;
    sc.burst_for = 10 * kMs;
    sc.controller = true;
    sc.telemetry = &telem;
    RunScenario(sc);
  }

  return violations == 0 ? 0 : 2;
}

}  // namespace
}  // namespace nvmetro::bench

int main(int argc, char** argv) { return nvmetro::bench::Main(argc, argv); }
