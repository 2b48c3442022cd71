// Availability under injected failures: NVMetro replication under a
// steady 4K write load while the NVMe-oF link to the secondary drops and
// heals. Reports a per-millisecond timeline — completions, mean latency,
// degraded writes, the dirty-region backlog and resync progress —
// showing the guest's view of a replica outage: no stall, a degraded
// window, then a background resync back to a clean mirror. Exits 1 when
// the outage was guest-visible, the mirror stayed dirty, or the SLO
// watchdog's breach windows disagree with the guest's errors.
//
// The random-plan recovery sweep over every stack is a ctest
// (FaultSweep in tests/fault_test.cc).
#include <cstdio>

#include "bench_common.h"
#include "fault/fault.h"
#include "obs/slo.h"

namespace nvmetro::bench {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using functions::ReplicatorUif;

BenchOptions DumpOptionsFromFlags(const Flags& flags) {
  BenchOptions opts;
  opts.metrics = flags.GetBool("metrics");
  opts.metrics_json = flags.GetBool("metrics-json");
  opts.trace_requests = static_cast<u32>(flags.GetInt("trace"));
  opts.perfetto_path = flags.GetString("perfetto");
  opts.prom_path = flags.GetString("prom");
  opts.timeseries_path = flags.GetString("timeseries");
  opts.timeseries_interval =
      static_cast<SimTime>(flags.GetInt("timeseries-interval-us")) * kUs;
  return opts;
}

/// Wraps Simulator::ScheduleAt for the obs-side samplers (the obs
/// library is a leaf and cannot link the simulator itself).
obs::TelemetryScheduler SimScheduler(sim::Simulator* sim) {
  return [sim](SimTime at, std::function<void()> fn) {
    sim->ScheduleAt(at, std::move(fn));
  };
}

int RunTimeline(const Flags& flags) {
  const SimTime duration = flags.GetInt("duration-ms") * kMs;
  const SimTime interval = flags.GetInt("interval-us") * kUs;
  const SimTime down_at = flags.GetInt("down-at-ms") * kMs;
  const SimTime down_for = flags.GetInt("down-ms") * kMs;
  const u64 bucket = 1 * kMs;
  const u64 buckets = duration / bucket;
  const u64 bs = 4096;

  BenchOptions dump = DumpOptionsFromFlags(flags);
  obs::Observability obs(ObsConfigFor(dump));
  ssd::ControllerConfig drive = Testbed::DefaultDrive();
  drive.obs = &obs;
  Testbed tb(drive);
  FaultInjector injector(&tb.sim, &obs);
  SolutionParams params;
  params.obs = &obs;
  params.fault = &injector;
  auto bundle = SolutionBundle::Create(
      &tb, SolutionKind::kNvmetroReplication, params);
  if (!bundle) {
    std::fprintf(stderr, "failed to build replication stack\n");
    return 1;
  }
  FaultPlan plan;
  plan.faults.push_back({.kind = FaultKind::kLinkDown,
                         .at_ns = down_at,
                         .duration_ns = down_for});
  injector.Arm(plan);

  // SLO watchdog: guest-visible write failures breach immediately; the
  // breach timeline must agree with the availability check below (a
  // replica outage handled by degraded mode is NOT an outage).
  obs::SloWatchdog slo(&obs.metrics(), &obs.flight(),
                       {.interval_ns = 1 * kMs});
  slo.AddErrorRateTarget("write_errors", "router.failed", "router.requests",
                         0.0);
  const SimTime horizon = duration + 40 * kMs;  // drain slack
  slo.Start(0, horizon, SimScheduler(&tb.sim));

  TelemetrySession telemetry(&tb.sim, &obs, dump);
  telemetry.Start(horizon);

  baselines::StorageSolution* sol = bundle->vm_solution(0);
  ReplicatorUif* repl = bundle->replicator(0);

  struct Bucket {
    u64 completions = 0;
    u64 lat_sum = 0;
    u64 degraded_writes = 0;  // snapshot at bucket end (cumulative)
    u64 dirty_sectors = 0;    // snapshot at bucket end
    u64 resynced = 0;         // snapshot at bucket end (cumulative)
  };
  std::vector<Bucket> timeline(buckets);

  // Shared time-to-recover definition (bench_common): first good IO
  // completing after the link heals. Any successful completion counts —
  // this is the availability view, not the latency view.
  RecoveryTracker recovery(down_at + down_for, ~0ull);
  u64 submitted = 0, completed = 0, errors = 0;
  for (SimTime t = 0; t < duration; t += interval) {
    tb.sim.ScheduleAfter(t, [&, t] {
      u64 off = (submitted * bs) % (8 * MiB);
      submitted++;
      sol->Submit(submitted % 4, baselines::StorageSolution::Op::kWrite,
                  off, bs, nullptr, [&, t](Status st) {
                    completed++;
                    if (!st.ok()) errors++;
                    recovery.OnCompletion(tb.sim.now(), st.ok(),
                                          tb.sim.now() - t);
                    u64 b = tb.sim.now() / bucket;
                    if (b < buckets) {
                      timeline[b].completions++;
                      timeline[b].lat_sum += tb.sim.now() - t;
                    }
                  });
    });
  }
  for (u64 b = 0; b < buckets; b++) {
    tb.sim.ScheduleAfter((b + 1) * bucket - 1, [&, b] {
      timeline[b].degraded_writes = repl->degraded_writes();
      timeline[b].dirty_sectors = repl->dirty_sectors();
      timeline[b].resynced = repl->resynced_sectors();
    });
  }
  tb.sim.Run();

  PrintHeader("Fault availability",
              StrFormat("replica outage at %llums for %llums, 4K writes "
                        "every %lluus",
                        (unsigned long long)(down_at / kMs),
                        (unsigned long long)(down_for / kMs),
                        (unsigned long long)(interval / kUs)));
  TablePrinter table({"t_ms", "kIOPS", "lat_us", "degraded_writes",
                      "dirty_sectors", "resynced_lbas"});
  for (u64 b = 0; b < buckets; b++) {
    const Bucket& bk = timeline[b];
    double kiops = bk.completions / (bucket / 1e9) / 1000.0;
    double lat_us =
        bk.completions ? bk.lat_sum / 1000.0 / bk.completions : 0.0;
    table.AddRow({StrFormat("%llu", (unsigned long long)b),
                  StrFormat("%.1f", kiops), StrFormat("%.1f", lat_us),
                  StrFormat("%llu", (unsigned long long)bk.degraded_writes),
                  StrFormat("%llu", (unsigned long long)bk.dirty_sectors),
                  StrFormat("%llu", (unsigned long long)bk.resynced)});
  }
  if (flags.GetBool("csv")) {
    std::fputs(table.RenderCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  std::printf(
      "writes: %llu submitted, %llu completed, %llu errors; "
      "replicated=%llu failed=%llu degraded=%llu resynced_sectors=%llu "
      "end_state=%s\n",
      (unsigned long long)submitted, (unsigned long long)completed,
      (unsigned long long)errors,
      (unsigned long long)repl->writes_replicated(),
      (unsigned long long)repl->writes_failed(),
      (unsigned long long)repl->degraded_writes(),
      (unsigned long long)repl->resynced_sectors(),
      repl->degraded() ? "DEGRADED" : "clean");
  std::printf("slo: %llu windows, %llu breached\n",
              (unsigned long long)slo.windows_evaluated(),
              (unsigned long long)slo.breach_windows("write_errors"));
  std::printf("time_to_recover: %lld ns (fault clear %llums, first good IO "
              "%.3fms)\n",
              (long long)recovery.time_to_recover_ns(),
              (unsigned long long)(recovery.clear_ns() / kMs),
              recovery.first_good_ns() / 1e6);

  const std::string json_path = flags.GetString("fault-json");
  if (!json_path.empty()) {
    std::string json = StrFormat(
        "{\"bench\":\"fault_availability\",\"down_at_ms\":%llu,"
        "\"down_ms\":%llu,\"duration_ms\":%llu,\"submitted\":%llu,"
        "\"completed\":%llu,\"errors\":%llu,\"degraded_writes\":%llu,"
        "\"resynced_sectors\":%llu,\"slo_breach_windows\":%llu,"
        "\"recovered\":%s,\"fault_clear_ns\":%llu,\"first_good_ns\":%llu,"
        "\"time_to_recover_ns\":%lld}\n",
        (unsigned long long)(down_at / kMs),
        (unsigned long long)(down_for / kMs),
        (unsigned long long)(duration / kMs), (unsigned long long)submitted,
        (unsigned long long)completed, (unsigned long long)errors,
        (unsigned long long)repl->degraded_writes(),
        (unsigned long long)repl->resynced_sectors(),
        (unsigned long long)slo.breach_windows("write_errors"),
        recovery.recovered() ? "true" : "false",
        (unsigned long long)recovery.clear_ns(),
        (unsigned long long)recovery.first_good_ns(),
        (long long)recovery.time_to_recover_ns());
    if (WriteTelemetryFile(json_path, json, "fault availability JSON")) {
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  telemetry.Finish();
  if (WantObservability(dump)) DumpObservability(obs, dump);

  // The run itself is an availability check: every write must complete
  // and the mirror must be clean again by the end.
  if (completed != submitted || errors || repl->degraded() ||
      repl->dirty_sectors() != 0 || !recovery.recovered()) {
    std::fprintf(stderr, "FAIL: outage was guest-visible or unresolved\n");
    return 1;
  }
  // The watchdog's view must match: guest-visible errors iff breaches.
  if ((slo.breach_windows("write_errors") > 0) != (errors > 0)) {
    std::fprintf(stderr,
                 "FAIL: SLO breach timeline disagrees with the outage "
                 "check (%llu breach windows, %llu errors)\n",
                 (unsigned long long)slo.breach_windows("write_errors"),
                 (unsigned long long)errors);
    return 1;
  }
  return 0;
}

int Main(int argc, const char* const* argv) {
  Flags flags;
  flags.DefineInt("duration-ms", 12, "timeline length");
  flags.DefineInt("interval-us", 20, "one 4K write per interval");
  flags.DefineInt("down-at-ms", 3, "link outage start");
  flags.DefineInt("down-ms", 3, "link outage duration");
  flags.DefineString("fault-json", "BENCH_fault.json",
                     "timeline-mode result JSON with the first-class "
                     "time_to_recover_ns field ('' = skip)");
  flags.DefineBool("csv", false, "CSV output");
  flags.DefineBool("metrics", false, "dump the metrics registry");
  flags.DefineBool("metrics-json", false, "dump metrics as JSON");
  flags.DefineInt("trace", 0, "dump the last N request traces");
  flags.DefineString("perfetto", "",
                     "write a Chrome/Perfetto trace-event JSON file");
  flags.DefineString("prom", "",
                     "write a Prometheus text-format metrics file");
  flags.DefineString("timeseries", "",
                     "write a telemetry time-series CSV file");
  flags.DefineInt("timeseries-interval-us", 1000,
                  "time-series sampling window (microseconds)");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return RunTimeline(flags);
}

}  // namespace
}  // namespace nvmetro::bench

int main(int argc, char** argv) { return nvmetro::bench::Main(argc, argv); }
