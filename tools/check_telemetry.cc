// Telemetry artifact checker for CI.
//
// Runs the same strict validators the unit tests use against exported
// telemetry files:
//
//   check_telemetry --perfetto=trace.json --prom=metrics.prom
//                   [--timeseries=series.csv] [--expect-tenants=N]
//
// Exits non-zero (with a diagnostic) when any given file fails its
// format check, so the ctest that validates a bench's export fails on
// an export regression.
//
// --expect-tenants=N additionally requires the Prometheus text to carry
// the per-tenant QoS series (qos_tenant<i>_admitted_total and the
// qos_tenant<i>_latency_ns summary) for every tenant 1..N, and — when a
// Perfetto trace is also given — requires at least one QOS_ span event
// in it, so a wiring regression that silently drops tenant attribution
// fails the check even though the files stay format-valid.
//
// --expect-resubmit requires the classifier-chain resubmission series
// (DESIGN.md §15): the router_resubmits_total counter and the
// router_chain_depth histogram summary in the Prometheus text, and — when
// a Perfetto trace is given — at least one RESUBMIT span event, so the
// pushdown check fails if chain telemetry silently disappears.
//
// --expect-overload similarly requires the overload-control series
// (DESIGN.md §13): the overload_state gauge, every per-state transition
// counter, the decision/shed/paced totals and — with --expect-tenants=N
// — the per-tenant overload_tenant<i>_{shed,paced,degraded}_total
// counters; a Perfetto trace, when given, must carry an OVERLOAD_ event
// (the state-transition instant marks and/or shed spans).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "obs/export.h"

namespace nvmetro {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[4096];
  usize n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

/// Structural CSV check: a non-empty header, every row with the same
/// column count, every non-header field numeric.
bool ValidateTimeSeriesCsv(const std::string& text, std::string* error) {
  usize pos = 0, lineno = 0, columns = 0;
  while (pos < text.size()) {
    usize nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      *error = "last line not newline-terminated";
      return false;
    }
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    lineno++;
    usize fields = 1;
    usize start = 0;
    for (usize i = 0; i <= line.size(); i++) {
      if (i == line.size() || line[i] == ',') {
        std::string field = line.substr(start, i - start);
        if (field.empty()) {
          *error = "line " + std::to_string(lineno) + ": empty field";
          return false;
        }
        if (lineno > 1) {
          char* end = nullptr;
          std::strtod(field.c_str(), &end);
          if (end != field.c_str() + field.size()) {
            *error = "line " + std::to_string(lineno) +
                     ": non-numeric field '" + field + "'";
            return false;
          }
        }
        start = i + 1;
        if (i < line.size()) fields++;
      }
    }
    if (lineno == 1) {
      columns = fields;
    } else if (fields != columns) {
      *error = "line " + std::to_string(lineno) + ": column count mismatch";
      return false;
    }
  }
  if (lineno == 0) {
    *error = "empty file";
    return false;
  }
  return true;
}

/// Per-tenant QoS coverage check against exported Prometheus text: every
/// tenant 1..n must have its admission counter and latency summary.
bool CheckTenantSeries(const std::string& prom, i64 n, std::string* error) {
  for (i64 i = 1; i <= n; i++) {
    const std::string base = "qos_tenant" + std::to_string(i);
    for (const char* suffix : {"_admitted_total", "_latency_ns"}) {
      const std::string name = base + suffix;
      if (prom.find(name) == std::string::npos) {
        *error = "missing per-tenant series '" + name + "'";
        return false;
      }
    }
  }
  return true;
}

/// Overload-control series coverage: state gauge, per-state transition
/// counters, global totals; per-tenant shed/pace/degrade attribution for
/// tenants 1..n when n > 0.
bool CheckOverloadSeries(const std::string& prom, i64 n, std::string* error) {
  const char* required[] = {
      "overload_state",
      "overload_signal_us",
      "overload_be_fraction_pct",
      "overload_decisions_total",
      "overload_sheds_total",
      "overload_paced_total",
      "overload_brownouts_total",
      "overload_transitions_normal_total",
      "overload_transitions_backpressure_total",
      "overload_transitions_brownout_total",
      "overload_transitions_shed_total",
  };
  for (const char* name : required) {
    if (prom.find(name) == std::string::npos) {
      *error = std::string("missing overload series '") + name + "'";
      return false;
    }
  }
  for (i64 i = 1; i <= n; i++) {
    const std::string base = "overload_tenant" + std::to_string(i);
    for (const char* suffix :
         {"_shed_total", "_paced_total", "_degraded_total"}) {
      const std::string name = base + suffix;
      if (prom.find(name) == std::string::npos) {
        *error = "missing per-tenant overload series '" + name + "'";
        return false;
      }
    }
  }
  return true;
}

/// Classifier-chain resubmission coverage: the resubmit counter plus the
/// chain-depth summary (count + quantile lines both spell the base name).
bool CheckResubmitSeries(const std::string& prom, std::string* error) {
  for (const char* name : {"router_resubmits_total", "router_chain_depth"}) {
    if (prom.find(name) == std::string::npos) {
      *error = std::string("missing resubmission series '") + name + "'";
      return false;
    }
  }
  return true;
}

int Check(const std::string& path, const char* what,
          bool (*validate)(const std::string&, std::string*)) {
  std::string data;
  if (!ReadFile(path, &data)) {
    std::fprintf(stderr, "check_telemetry: cannot read %s '%s'\n", what,
                 path.c_str());
    return 1;
  }
  std::string error;
  if (!validate(data, &error)) {
    std::fprintf(stderr, "check_telemetry: %s '%s' INVALID: %s\n", what,
                 path.c_str(), error.c_str());
    return 1;
  }
  std::printf("check_telemetry: %s '%s' ok (%zu bytes)\n", what, path.c_str(),
              data.size());
  return 0;
}

int Main(int argc, const char* const* argv) {
  Flags flags;
  flags.DefineString("perfetto", "", "trace-event JSON file to validate");
  flags.DefineString("prom", "", "Prometheus text file to validate");
  flags.DefineString("timeseries", "", "time-series CSV file to validate");
  flags.DefineInt("expect-tenants", 0,
                  "require per-tenant QoS series for tenants 1..N in the "
                  "Prometheus text (and a QOS_ span in the Perfetto trace)");
  flags.DefineBool("expect-resubmit", false,
                   "require the classifier-chain resubmission series "
                   "(router_resubmits_total counter, router_chain_depth "
                   "summary) in the Prometheus text and a RESUBMIT span in "
                   "the Perfetto trace");
  flags.DefineBool("expect-overload", false,
                   "require the overload-control series (state gauge, "
                   "transition counters, per-tenant shed/pace attribution "
                   "with --expect-tenants) in the Prometheus text and an "
                   "OVERLOAD_ event in the Perfetto trace");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  int rc = 0;
  bool any = false;
  if (!flags.GetString("perfetto").empty()) {
    any = true;
    rc |= Check(flags.GetString("perfetto"), "Perfetto trace",
                &obs::ValidateTraceEventJson);
  }
  if (!flags.GetString("prom").empty()) {
    any = true;
    rc |= Check(flags.GetString("prom"), "Prometheus metrics",
                &obs::ValidatePrometheusText);
  }
  if (!flags.GetString("timeseries").empty()) {
    any = true;
    rc |= Check(flags.GetString("timeseries"), "time-series CSV",
                &ValidateTimeSeriesCsv);
  }
  i64 expect_tenants = flags.GetInt("expect-tenants");
  if (expect_tenants > 0) {
    any = true;
    if (flags.GetString("prom").empty()) {
      std::fprintf(stderr,
                   "check_telemetry: --expect-tenants requires --prom\n");
      return 1;
    }
    std::string prom, error;
    if (!ReadFile(flags.GetString("prom"), &prom)) {
      std::fprintf(stderr, "check_telemetry: cannot read Prometheus file\n");
      return 1;
    }
    if (!CheckTenantSeries(prom, expect_tenants, &error)) {
      std::fprintf(stderr, "check_telemetry: tenant coverage INVALID: %s\n",
                   error.c_str());
      rc |= 1;
    } else {
      std::printf("check_telemetry: per-tenant series ok (%lld tenant(s))\n",
                  static_cast<long long>(expect_tenants));
    }
    if (!flags.GetString("perfetto").empty()) {
      std::string trace;
      if (ReadFile(flags.GetString("perfetto"), &trace) &&
          trace.find("QOS_") == std::string::npos) {
        std::fprintf(stderr,
                     "check_telemetry: Perfetto trace has no QOS_ spans\n");
        rc |= 1;
      }
    }
  }
  if (flags.GetBool("expect-resubmit")) {
    any = true;
    if (flags.GetString("prom").empty()) {
      std::fprintf(stderr,
                   "check_telemetry: --expect-resubmit requires --prom\n");
      return 1;
    }
    std::string prom, error;
    if (!ReadFile(flags.GetString("prom"), &prom)) {
      std::fprintf(stderr, "check_telemetry: cannot read Prometheus file\n");
      return 1;
    }
    if (!CheckResubmitSeries(prom, &error)) {
      std::fprintf(stderr, "check_telemetry: resubmit coverage INVALID: %s\n",
                   error.c_str());
      rc |= 1;
    } else {
      std::printf("check_telemetry: resubmission series ok\n");
    }
    if (!flags.GetString("perfetto").empty()) {
      std::string trace;
      if (ReadFile(flags.GetString("perfetto"), &trace) &&
          trace.find("RESUBMIT") == std::string::npos) {
        std::fprintf(stderr,
                     "check_telemetry: Perfetto trace has no RESUBMIT "
                     "spans\n");
        rc |= 1;
      }
    }
  }
  if (flags.GetBool("expect-overload")) {
    any = true;
    if (flags.GetString("prom").empty()) {
      std::fprintf(stderr,
                   "check_telemetry: --expect-overload requires --prom\n");
      return 1;
    }
    std::string prom, error;
    if (!ReadFile(flags.GetString("prom"), &prom)) {
      std::fprintf(stderr, "check_telemetry: cannot read Prometheus file\n");
      return 1;
    }
    if (!CheckOverloadSeries(prom, expect_tenants, &error)) {
      std::fprintf(stderr, "check_telemetry: overload coverage INVALID: %s\n",
                   error.c_str());
      rc |= 1;
    } else {
      std::printf("check_telemetry: overload series ok\n");
    }
    if (!flags.GetString("perfetto").empty()) {
      std::string trace;
      if (ReadFile(flags.GetString("perfetto"), &trace) &&
          trace.find("OVERLOAD_") == std::string::npos) {
        std::fprintf(stderr,
                     "check_telemetry: Perfetto trace has no OVERLOAD_ "
                     "events\n");
        rc |= 1;
      }
    }
  }
  if (!any) {
    std::fprintf(stderr,
                 "check_telemetry: nothing to check (pass --perfetto/--prom/"
                 "--timeseries)\n");
    return 1;
  }
  return rc;
}

}  // namespace
}  // namespace nvmetro

int main(int argc, char** argv) { return nvmetro::Main(argc, argv); }
