// Telemetry layer tests: span analytics (exact latency attribution),
// windowed time-series sampling, the SLO watchdog, and the Perfetto /
// Prometheus exporters with their strict validators.
//
// The load-bearing invariant is exactness: for every analyzed request,
// the per-stage nanosecond breakdown must sum to the end-to-end latency
// measured independently from the first and last trace timestamps —
// across all five routing paths, under batching, and under fault
// recovery. An attribution that merely "adds up approximately" would
// silently hide a stage.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "common/histogram.h"
#include "core/notify.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "fault/fault.h"
#include "functions/classifiers.h"
#include "functions/replicator_uif.h"
#include "kblock/devices.h"
#include "mem/address_space.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "ssd/controller.h"
#include "uif/framework.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::obs {
namespace {

// --- SpanAnalyzer on synthetic traces ----------------------------------------

/// A synthetic stream: VM `vm`'s queue-0 ring behind obs.trace().
struct Stream {
  Observability obs;
  FlightRing* ring;

  explicit Stream(usize capacity = 64, u32 vm = 1)
      : obs({.ring_capacity = capacity}),
        ring(obs.flight().RegisterRing(vm, 0)) {}
  TraceRecorder& tr() { return obs.trace(); }
  void Ev(u64 req, SimTime t, SpanKind kind) { ring->Stamp(t, req, kind); }
};

TEST(SpanAnalyzerTest, SyntheticFastSpanAttributesEveryDelta) {
  Stream s;
  TraceRecorder& tr = s.tr();
  u64 id = tr.BeginRequest();
  s.Ev(id, 100, SpanKind::kVsqPop);
  s.Ev(id, 130, SpanKind::kClassifier);     // classify   +30
  s.Ev(id, 150, SpanKind::kDispatchFast);   // dispatch   +20
  s.Ev(id, 1150, SpanKind::kHcqComplete);   // device     +1000
  s.Ev(id, 1200, SpanKind::kVcqPost);       // post       +50
  s.Ev(id, 1900, SpanKind::kIrqInject);     // irq        +700
  tr.EndRequest();

  SpanAnalyzer an;
  an.Analyze(tr);
  ASSERT_EQ(an.requests().size(), 1u);
  const RequestBreakdown& bd = an.requests()[0];
  EXPECT_EQ(bd.req_id, id);
  EXPECT_EQ(bd.vm_id, 1u);
  EXPECT_EQ(bd.path, PathClass::kFast);
  EXPECT_EQ(bd.e2e_ns, 1100u);  // 1200 - 100, independent of the stages
  EXPECT_EQ(bd.irq_ns, 700u);   // outside e2e
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kClassify)], 30u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kDispatch)], 20u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kDevice)], 1000u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kPost)], 50u);
  EXPECT_EQ(bd.StageSum(), bd.e2e_ns);
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
  EXPECT_EQ(an.by_path()[static_cast<usize>(PathClass::kFast)].requests, 1u);
  ASSERT_EQ(an.by_vm().count(1), 1u);
  EXPECT_EQ(an.by_vm().at(1).e2e.max(), 1100u);
}

TEST(SpanAnalyzerTest, NotifyAndRetryKindsLandInTheirStages) {
  Stream s;
  TraceRecorder& tr = s.tr();
  u64 id = tr.BeginRequest();
  s.Ev(id, 0, SpanKind::kVsqPop);
  s.Ev(id, 10, SpanKind::kClassifier);       // classify    +10
  s.Ev(id, 10, SpanKind::kDispatchNotify);   // dispatch    +0
  s.Ev(id, 250, SpanKind::kUifWork);         // uif_queue   +240
  s.Ev(id, 700, SpanKind::kUifRespond);      // uif_service +450
  s.Ev(id, 800, SpanKind::kRetry);           // retry_wait  +100
  // The delta FOLLOWING a RETRY stamp is the backoff wait, charged to
  // retry_wait even though the re-dispatch event ends it.
  s.Ev(id, 820, SpanKind::kDispatchNotify);  // retry_wait  +20
  s.Ev(id, 900, SpanKind::kUifWork);         // uif_queue   +80
  s.Ev(id, 950, SpanKind::kUifRespond);      // uif_service +50
  s.Ev(id, 990, SpanKind::kNcqComplete);     // harvest     +40
  s.Ev(id, 1000, SpanKind::kVcqPost);        // post        +10
  tr.EndRequest();

  SpanAnalyzer an;
  an.Analyze(tr);
  ASSERT_EQ(an.requests().size(), 1u);
  const RequestBreakdown& bd = an.requests()[0];
  EXPECT_EQ(bd.path, PathClass::kNotify);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kRetryWait)], 120u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kUifQueue)], 320u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kUifService)], 500u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kHarvest)], 40u);
  EXPECT_EQ(bd.e2e_ns, 1000u);
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
}

TEST(SpanAnalyzerTest, ResubmitChainHopsLandInTheResubmitStage) {
  // A two-hop pushdown chain: each RESUBMIT stamp ends a hook-rerun
  // delta (charged to the dedicated resubmit stage, not to classify or
  // dispatch), and the chain's extra device crossings stay in device.
  Stream s;
  TraceRecorder& tr = s.tr();
  u64 id = tr.BeginRequest();
  s.Ev(id, 0, SpanKind::kVsqPop);
  s.Ev(id, 10, SpanKind::kClassifier);      // classify  +10
  s.Ev(id, 20, SpanKind::kDispatchFast);    // dispatch  +10
  s.Ev(id, 1020, SpanKind::kHcqComplete);   // device    +1000
  s.Ev(id, 1070, SpanKind::kResubmit);      // resubmit  +50
  s.Ev(id, 1080, SpanKind::kDispatchFast);  // dispatch  +10
  s.Ev(id, 2080, SpanKind::kHcqComplete);   // device    +1000
  s.Ev(id, 2120, SpanKind::kResubmit);      // resubmit  +40
  s.Ev(id, 2130, SpanKind::kDispatchFast);  // dispatch  +10
  s.Ev(id, 3130, SpanKind::kHcqComplete);   // device    +1000
  s.Ev(id, 3180, SpanKind::kVcqPost);       // post      +50
  tr.EndRequest();

  SpanAnalyzer an;
  an.Analyze(tr);
  ASSERT_EQ(an.requests().size(), 1u);
  const RequestBreakdown& bd = an.requests()[0];
  EXPECT_EQ(bd.path, PathClass::kFast);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kClassify)], 10u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kDispatch)], 30u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kDevice)], 3000u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kResubmit)], 90u);
  EXPECT_EQ(bd.stage_ns[static_cast<usize>(Stage::kPost)], 50u);
  EXPECT_EQ(bd.e2e_ns, 3180u);
  EXPECT_EQ(bd.StageSum(), bd.e2e_ns);
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
  EXPECT_STREQ(StageName(Stage::kResubmit), "resubmit");
}

TEST(SpanAnalyzerTest, LateFanoutLegAfterPostStaysUnattributed) {
  // A mirror write completes to the guest when the faster leg settles;
  // the slower leg's completion arrives after VCQ_POST and must not be
  // attributed to any stage (it is outside the guest-visible request).
  Stream s;
  TraceRecorder& tr = s.tr();
  u64 id = tr.BeginRequest();
  s.Ev(id, 0, SpanKind::kVsqPop);
  s.Ev(id, 10, SpanKind::kClassifier);
  s.Ev(id, 20, SpanKind::kDispatchFast);
  s.Ev(id, 30, SpanKind::kDispatchNotify);
  s.Ev(id, 200, SpanKind::kNcqComplete);
  s.Ev(id, 250, SpanKind::kVcqPost);
  s.Ev(id, 900, SpanKind::kHcqComplete);  // late leg: ignored
  s.Ev(id, 950, SpanKind::kIrqInject);
  tr.EndRequest();

  SpanAnalyzer an;
  an.Analyze(tr);
  ASSERT_EQ(an.requests().size(), 1u);
  const RequestBreakdown& bd = an.requests()[0];
  EXPECT_EQ(bd.path, PathClass::kFanout);
  EXPECT_EQ(bd.e2e_ns, 250u);
  EXPECT_EQ(bd.StageSum(), 250u);
  // IRQ delay still measured from the previous event (the late leg).
  EXPECT_EQ(bd.irq_ns, 50u);
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
}

TEST(SpanAnalyzerTest, OpenAndTruncatedSpansAreExcludedButCounted) {
  Stream s(4);  // tiny rings: force eviction
  TraceRecorder& tr = s.tr();
  // d runs on queue 1, whose ring never wraps: fully retained although
  // queue 0's ring evicts later requests.
  FlightRing* q1 = s.obs.flight().RegisterRing(1, 1);
  u64 d = tr.BeginRequest();
  q1->Stamp(0, d, SpanKind::kVsqPop);
  q1->Stamp(5, d, SpanKind::kDispatchFast);
  q1->Stamp(25, d, SpanKind::kVcqPost);
  u64 a = tr.BeginRequest();
  s.Ev(a, 0, SpanKind::kVsqPop);
  s.Ev(a, 10, SpanKind::kDispatchFast);
  s.Ev(a, 20, SpanKind::kHcqComplete);
  u64 b = tr.BeginRequest();
  s.Ev(b, 30, SpanKind::kVsqPop);         // ring now full
  s.Ev(b, 40, SpanKind::kDispatchFast);   // evicts a's VSQ_POP
  s.Ev(b, 50, SpanKind::kVcqPost);        // evicts a's dispatch
  EXPECT_TRUE(tr.truncated(a));  // head gone, HCQ_COMPLETE still retained
  u64 c = tr.BeginRequest();
  s.Ev(c, 60, SpanKind::kVsqPop);         // open span: no post

  EXPECT_TRUE(tr.truncated(a));  // nothing of a is left
  EXPECT_FALSE(tr.truncated(b));
  EXPECT_FALSE(tr.truncated(c));
  EXPECT_FALSE(tr.truncated(d));  // decided per request, not per ring

  SpanAnalyzer an;
  an.Analyze(tr);
  // d and b are analyzable: a is truncated, c never posted.
  ASSERT_EQ(an.requests().size(), 2u);
  EXPECT_EQ(an.requests()[0].req_id, d);
  EXPECT_EQ(an.requests()[1].req_id, b);
  EXPECT_EQ(an.truncated_spans(), 1u);
  EXPECT_EQ(an.open_spans(), 1u);
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
}

// --- TraceRecorder truncation (regression: wrapped spans must be marked) -----

TEST(TraceRecorderTest, WrappedPathStringCarriesEllipsisPrefix) {
  Stream s(4);
  TraceRecorder& tr = s.tr();
  u64 a = tr.BeginRequest();
  s.Ev(a, 0, SpanKind::kVsqPop);
  s.Ev(a, 10, SpanKind::kDispatchFast);
  s.Ev(a, 20, SpanKind::kHcqComplete);
  s.Ev(a, 30, SpanKind::kVcqPost);
  EXPECT_FALSE(tr.truncated(a));  // exactly full, nothing evicted yet
  EXPECT_EQ(tr.PathString(a),
            "VSQ_POP > DISPATCH_FAST > HCQ_COMPLETE > VCQ_POST");

  u64 b = tr.BeginRequest();
  s.Ev(b, 40, SpanKind::kVsqPop);  // evicts a's first record
  EXPECT_TRUE(tr.truncated(a));
  // The partial path can never be mistaken for a complete one.
  EXPECT_EQ(tr.PathString(a),
            "... > DISPATCH_FAST > HCQ_COMPLETE > VCQ_POST");
  EXPECT_EQ(tr.PathString(b), "VSQ_POP");
  // A request with NO retained records still reports as truncated.
  s.Ev(b, 50, SpanKind::kDispatchFast);
  s.Ev(b, 60, SpanKind::kHcqComplete);
  s.Ev(b, 70, SpanKind::kVcqPost);
  EXPECT_EQ(tr.EventsFor(a).size(), 0u);
  EXPECT_EQ(tr.PathString(a), "...");

  tr.Reset();
  EXPECT_FALSE(tr.truncated(1));
}

// --- LatencyHistogram windowed statistics ------------------------------------

TEST(HistogramDeltaTest, WindowedQuantilesIgnoreOlderSamples) {
  LatencyHistogram h;
  for (int i = 0; i < 100; i++) h.Record(1000);
  LatencyHistogram prev = h;  // window boundary
  for (int i = 0; i < 50; i++) h.Record(9000);
  EXPECT_EQ(h.DeltaCount(prev), 50u);
  EXPECT_EQ(h.DeltaSum(prev), 50u * 9000u);
  // The window's median is ~9000 (bucket resolution), nowhere near the
  // lifetime median of 1000.
  u64 p50 = h.DeltaQuantile(prev, 0.5);
  EXPECT_NEAR(static_cast<double>(p50), 9000.0, 9000.0 * 0.01);
  EXPECT_GE(h.DeltaQuantile(prev, 0.99), p50);
  // An empty window reads 0, not a stale value.
  LatencyHistogram prev2 = h;
  EXPECT_EQ(h.DeltaCount(prev2), 0u);
  EXPECT_EQ(h.DeltaQuantile(prev2, 0.5), 0u);
}

TEST(HistogramDeltaTest, DeltaQuantileClampsToLifetimeMax) {
  LatencyHistogram h;
  h.Record(500);
  LatencyHistogram prev = h;
  h.Record(700);  // window of one sample
  u64 q = h.DeltaQuantile(prev, 1.0);
  EXPECT_LE(q, h.max());
  EXPECT_NEAR(static_cast<double>(q), 700.0, 700.0 * 0.01);
}

TEST(HistogramDeltaTest, P999TracksTail) {
  LatencyHistogram h;
  for (u64 v = 1; v <= 10'000; v++) h.Record(v);
  EXPECT_GE(h.P999(), h.P99());
  EXPECT_NEAR(static_cast<double>(h.P999()), 9990.0, 9990.0 * 0.01);
  EXPECT_EQ(h.sum(), 10'000ull * 10'001ull / 2);
}

// --- TimeSeries --------------------------------------------------------------

TEST(TimeSeriesTest, CounterProbeYieldsDeltasAndRates) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("iops.src");
  TimeSeries ts(&reg, {.interval_ns = 1'000'000, .capacity = 16});
  ts.AddCounterProbe("iops", "iops.src");
  ASSERT_EQ(ts.columns().size(), 3u);  // t_ns, iops_delta, iops_rate
  EXPECT_EQ(ts.columns()[1], "iops_delta");
  EXPECT_EQ(ts.columns()[2], "iops_rate");

  c->Inc(100);
  ts.SampleNow(1'000'000);
  c->Inc(250);
  ts.SampleNow(2'000'000);
  ts.SampleNow(3'000'000);  // idle window

  auto samples = ts.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].values[1], 100.0);
  EXPECT_EQ(samples[0].values[2], 100.0 / 0.001);  // per second
  EXPECT_EQ(samples[1].values[1], 250.0);
  EXPECT_EQ(samples[2].values[1], 0.0);
  EXPECT_EQ(samples[2].values[2], 0.0);
}

TEST(TimeSeriesTest, GaugeAndHistogramProbesSampleLevelsAndWindows) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("depth.src");
  LatencyHistogram* h = reg.GetHistogram("lat.src");
  TimeSeries ts(&reg, {.interval_ns = 1'000'000, .capacity = 16});
  ts.AddGaugeProbe("depth", "depth.src");
  ts.AddHistogramProbe("lat", "lat.src");
  // t_ns, depth, depth_max, lat_count, lat_p50_ns, lat_p99_ns
  ASSERT_EQ(ts.columns().size(), 6u);

  g->Set(7);
  g->Set(3);
  for (int i = 0; i < 4; i++) h->Record(1000);
  ts.SampleNow(1'000'000);
  for (int i = 0; i < 6; i++) h->Record(5000);
  ts.SampleNow(2'000'000);

  auto samples = ts.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].values[1], 3.0);  // level after the dip
  EXPECT_EQ(samples[0].values[2], 7.0);  // watermark survives
  EXPECT_EQ(samples[0].values[3], 4.0);  // window count
  EXPECT_EQ(samples[0].values[4], 1000.0);
  EXPECT_EQ(samples[1].values[3], 6.0);  // only the new window's samples
  EXPECT_NEAR(samples[1].values[4], 5000.0, 5000.0 * 0.01);
}

TEST(TimeSeriesTest, AbsentMetricSamplesAsZeroUntilRegistered) {
  MetricsRegistry reg;
  TimeSeries ts(&reg, {.interval_ns = 1'000'000, .capacity = 4});
  ts.AddCounterProbe("x", "late.metric");
  ts.SampleNow(1'000'000);
  reg.GetCounter("late.metric")->Inc(5);
  ts.SampleNow(2'000'000);
  auto samples = ts.samples();
  EXPECT_EQ(samples[0].values[1], 0.0);
  EXPECT_EQ(samples[1].values[1], 5.0);  // picked up without re-probing
}

TEST(TimeSeriesTest, RingKeepsNewestSamples) {
  MetricsRegistry reg;
  TimeSeries ts(&reg, {.interval_ns = 1'000'000, .capacity = 4});
  for (int i = 1; i <= 10; i++) ts.SampleNow(i * 1'000'000);
  EXPECT_EQ(ts.total_sampled(), 10u);
  auto samples = ts.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().t, 7'000'000u);
  EXPECT_EQ(samples.back().t, 10'000'000u);
}

TEST(TimeSeriesTest, StartPreSchedulesEveryTickUpToHorizon) {
  MetricsRegistry reg;
  reg.GetCounter("c");
  TimeSeries ts(&reg, {.interval_ns = 1'000'000, .capacity = 16});
  ts.AddCounterProbe("c", "c");
  // Fake scheduler: collect, then fire in order (the simulator would).
  std::vector<std::pair<SimTime, std::function<void()>>> ticks;
  ts.Start(0, 5'500'000,
           [&](SimTime at, std::function<void()> fn) {
             ticks.emplace_back(at, std::move(fn));
           });
  ASSERT_EQ(ticks.size(), 5u);  // 1ms..5ms inclusive, never past horizon
  EXPECT_EQ(ticks.front().first, 1'000'000u);
  EXPECT_EQ(ticks.back().first, 5'000'000u);
  for (auto& [at, fn] : ticks) fn();
  EXPECT_EQ(ts.total_sampled(), 5u);
}

TEST(TimeSeriesTest, CsvIsRectangularWithHeader) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Inc(3);
  reg.GetGauge("g")->Set(-2);
  TimeSeries ts(&reg, {.interval_ns = 1'000'000, .capacity = 8});
  ts.AddCounterProbe("c", "c");
  ts.AddGaugeProbe("g", "g");
  ts.SampleNow(1'000'000);
  ts.SampleNow(2'000'000);
  std::string csv = ts.ToCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_ns,c_delta,c_rate,g,g_max");
  usize lines = 0, commas_first = 0;
  for (usize i = 0; i < csv.size(); i++) {
    if (csv[i] == '\n') lines++;
  }
  EXPECT_EQ(lines, 3u);  // header + 2 samples, newline-terminated
  std::string row = csv.substr(csv.find('\n') + 1);
  row = row.substr(0, row.find('\n'));
  for (char ch : row) {
    if (ch == ',') commas_first++;
  }
  EXPECT_EQ(commas_first, 4u);  // same column count as the header
  EXPECT_NE(row.find("-2"), std::string::npos);  // negative gauge intact
}

TEST(TimeSeriesTest, CsvSnapshotAfterWrapKeepsOnlyRetainedWindow) {
  // A forensic dump embeds ToCsv() from a long-running ring: after the
  // ring wraps, the snapshot must hold exactly the newest `capacity`
  // samples with their per-window deltas intact — not a blend of old
  // and new rows.
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("ios");
  TimeSeries ts(&reg, {.interval_ns = 1'000'000, .capacity = 4});
  ts.AddCounterProbe("ios", "ios");
  for (int i = 1; i <= 10; i++) {
    c->Inc(static_cast<u64>(i));  // window i's delta is exactly i
    ts.SampleNow(static_cast<SimTime>(i) * 1'000'000);
  }
  EXPECT_EQ(ts.total_sampled(), 10u);
  ASSERT_EQ(ts.samples().size(), 4u);

  std::string csv = ts.ToCsv();
  std::vector<std::string> lines;
  for (usize pos = 0; pos < csv.size();) {
    usize nl = csv.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    lines.push_back(csv.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 5u);  // header + the 4 retained samples
  EXPECT_EQ(lines[0], "t_ns,ios_delta,ios_rate");
  // Oldest retained row first: windows 7..10, each delta = window index
  // and rate = delta / 1 ms.
  for (int i = 0; i < 4; i++) {
    int w = 7 + i;
    EXPECT_EQ(lines[static_cast<usize>(1 + i)],
              std::to_string(w * 1'000'000) + "," + std::to_string(w) + "," +
                  std::to_string(w * 1000))
        << "window " << w;
  }
}

// --- SloWatchdog -------------------------------------------------------------

TEST(SloWatchdogTest, LatencyTargetBreachesOnlyOnBadWindows) {
  MetricsRegistry reg;
  Observability obs;
  LatencyHistogram* h = reg.GetHistogram("router.latency_ns");
  SloWatchdog slo(&reg, &obs.flight(), {.interval_ns = 1'000'000});
  slo.AddLatencyTarget("p99", "router.latency_ns", 0.99, 10'000);

  for (int i = 0; i < 5; i++) h->Record(1000);
  slo.EvaluateWindow(1'000'000);  // healthy window
  EXPECT_EQ(slo.breach_windows("p99"), 0u);
  EXPECT_EQ(reg.FindGauge("slo.p99.breached")->value(), 0);

  for (int i = 0; i < 3; i++) h->Record(50'000);
  slo.EvaluateWindow(2'000'000);  // the window's p99 is ~50us
  EXPECT_EQ(slo.breach_windows("p99"), 1u);
  EXPECT_EQ(reg.CounterValue("slo.p99.breaches"), 1u);
  EXPECT_EQ(reg.FindGauge("slo.p99.breached")->value(), 1);
  ASSERT_EQ(slo.breaches().size(), 1u);
  EXPECT_EQ(slo.breaches()[0].t, 2'000'000u);
  EXPECT_EQ(slo.breaches()[0].target, "p99");
  EXPECT_GT(slo.breaches()[0].observed, slo.breaches()[0].limit);

  slo.EvaluateWindow(3'000'000);  // empty window: never a breach
  EXPECT_EQ(slo.breach_windows("p99"), 1u);
  EXPECT_EQ(reg.FindGauge("slo.p99.breached")->value(), 0);  // cleared
  EXPECT_EQ(slo.windows_evaluated(), 3u);

  // The breach left a mark for the Perfetto export.
  auto evs = obs.trace().Events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, SpanKind::kSloBreach);
  EXPECT_EQ(evs[0].req_id, 0u);
  EXPECT_EQ(evs[0].t, 2'000'000u);
  EXPECT_EQ(evs[0].status, 0u);  // target index
}

TEST(SloWatchdogTest, ErrorRateTargetUsesWindowDeltas) {
  MetricsRegistry reg;
  Counter* err = reg.GetCounter("router.failed");
  Counter* total = reg.GetCounter("router.requests");
  SloWatchdog slo(&reg, nullptr, {.interval_ns = 1'000'000});
  slo.AddErrorRateTarget("errors", "router.failed", "router.requests", 0.0);

  total->Inc(100);
  slo.EvaluateWindow(1'000'000);  // 0/100: fine
  EXPECT_EQ(slo.breach_windows("errors"), 0u);

  total->Inc(50);
  err->Inc(2);
  slo.EvaluateWindow(2'000'000);  // 2/50 > 0: breach
  EXPECT_EQ(slo.breach_windows("errors"), 1u);

  total->Inc(50);
  slo.EvaluateWindow(3'000'000);  // errors from window 2 don't leak in
  EXPECT_EQ(slo.breach_windows("errors"), 1u);

  slo.EvaluateWindow(4'000'000);  // no traffic at all: never a breach
  EXPECT_EQ(slo.breach_windows("errors"), 1u);
  EXPECT_EQ(reg.CounterValue("slo.errors.breaches"), 1u);
}

TEST(SloWatchdogTest, StartPreSchedulesWindows) {
  MetricsRegistry reg;
  SloWatchdog slo(&reg, nullptr, {.interval_ns = 2'000'000});
  slo.AddErrorRateTarget("e", "err", "total", 0.0);
  std::vector<std::function<void()>> ticks;
  slo.Start(0, 10'000'000, [&](SimTime, std::function<void()> fn) {
    ticks.push_back(std::move(fn));
  });
  ASSERT_EQ(ticks.size(), 5u);
  for (auto& fn : ticks) fn();
  EXPECT_EQ(slo.windows_evaluated(), 5u);
}

// --- Exporters + validators --------------------------------------------------

TEST(ExportTest, EmptyTraceAndRegistryExportsAreValid) {
  Observability obs({.ring_capacity = 8});
  MetricsRegistry reg;
  std::string err;
  EXPECT_TRUE(ValidateTraceEventJson(ExportPerfettoJson(obs.trace()), &err))
      << err;
  EXPECT_TRUE(ValidatePrometheusText(ExportPrometheusText(reg), &err)) << err;
}

TEST(ExportTest, PerfettoExportContainsSlicesInstantsAndMetadata) {
  Stream s(64, /*vm=*/3);
  TraceRecorder& tr = s.tr();
  u64 id = tr.BeginRequest();
  s.Ev(id, 1000, SpanKind::kVsqPop);
  s.Ev(id, 1500, SpanKind::kDispatchFast);
  s.Ev(id, 2750, SpanKind::kRetry);
  s.Ev(id, 3000, SpanKind::kDispatchFast);
  s.Ev(id, 5000, SpanKind::kHcqComplete);
  s.Ev(id, 5250, SpanKind::kVcqPost);
  // SLO breach mark on the telemetry track.
  s.obs.flight().Mark(6000, SpanKind::kSloBreach, 6000);

  std::string json = ExportPerfettoJson(tr);
  std::string err;
  ASSERT_TRUE(ValidateTraceEventJson(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Complete slices carry the stage as category; the retry doubles as an
  // instant; metadata names the VM process and the path track.
  EXPECT_NE(json.find("\"name\":\"HCQ_COMPLETE\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"device\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"SLO_BREACH\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"VM 3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fast path\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"telemetry\""), std::string::npos);
  // ts is microseconds with the nanosecond fraction preserved.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
}

TEST(ExportTest, TraceEventValidatorRejectsMalformedDocuments) {
  std::string err;
  EXPECT_FALSE(ValidateTraceEventJson("{", &err));
  EXPECT_FALSE(ValidateTraceEventJson("[]", &err));  // root must be object
  EXPECT_FALSE(ValidateTraceEventJson("{\"foo\":1}", &err));
  // An X slice without dur is structurally invalid.
  EXPECT_FALSE(ValidateTraceEventJson(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,"
      "\"pid\":1,\"tid\":1}]}",
      &err));
  EXPECT_NE(err.find("dur"), std::string::npos);
  // Trailing comma: full-grammar strictness.
  EXPECT_FALSE(ValidateTraceEventJson("{\"traceEvents\":[],}", &err));
}

TEST(ExportTest, PrometheusExportPassesStrictChecker) {
  MetricsRegistry reg;
  reg.GetCounter("router.requests")->Inc(42);
  Gauge* g = reg.GetGauge("router.inflight");
  g->Set(9);
  g->Set(4);
  LatencyHistogram* h = reg.GetHistogram("router.latency_ns");
  for (u64 v = 100; v <= 1000; v += 100) h->Record(v);

  std::string text = ExportPrometheusText(reg);
  std::string err;
  ASSERT_TRUE(ValidatePrometheusText(text, &err)) << err << "\n" << text;
  // Counters gain _total; the watermark rides along as its own gauge;
  // histograms export as summaries with the three quantiles.
  EXPECT_NE(text.find("# TYPE router_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("router_requests_total 42"), std::string::npos);
  EXPECT_NE(text.find("router_inflight 4"), std::string::npos);
  EXPECT_NE(text.find("router_inflight_max 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE router_latency_ns summary"), std::string::npos);
  EXPECT_NE(text.find("router_latency_ns{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("router_latency_ns_sum 5500"), std::string::npos);
  EXPECT_NE(text.find("router_latency_ns_count 10"), std::string::npos);
}

TEST(ExportTest, PrometheusValidatorRejectsMalformedText) {
  std::string err;
  // Sample with no preceding TYPE declaration.
  EXPECT_FALSE(ValidatePrometheusText("orphan_metric 1\n", &err));
  // Duplicate TYPE.
  EXPECT_FALSE(ValidatePrometheusText(
      "# TYPE a counter\na 1\n# TYPE a counter\na 2\n", &err));
  // Sample not matching the current family.
  EXPECT_FALSE(ValidatePrometheusText("# TYPE a counter\nb 1\n", &err));
  // Unquoted label value.
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE a gauge\na{x=1} 1\n", &err));
  // Non-numeric value.
  EXPECT_FALSE(ValidatePrometheusText("# TYPE a gauge\na one\n", &err));
  // Missing trailing newline.
  EXPECT_FALSE(ValidatePrometheusText("# TYPE a gauge\na 1", &err));
  // And the good version of each passes.
  EXPECT_TRUE(ValidatePrometheusText(
      "# TYPE a summary\na{quantile=\"0.5\"} 3\na_sum 9\na_count 3\n", &err))
      << err;
}

}  // namespace
}  // namespace nvmetro::obs

// --- Exact attribution through the real router -------------------------------

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

/// Echoes success synchronously (framework responds on work()==false).
struct EchoUif : uif::UifBase {
  bool work(const nvme::Sqe&, u32, u16& status) override {
    status = nvme::kStatusSuccess;
    return false;
  }
};

/// The ObsRouterFixture stack from obs_test.cc, parameterized by
/// RouterCosts so the batched pipeline can be exercised too.
struct SpanRouterFixture : ::testing::Test {
  obs::Observability obs;  // must outlive every component caching pointers
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  RouterCosts costs{};
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<NvmetroHost> host;
  VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;

  void Build(const char* classifier_asm = nullptr, u16 queues = 1) {
    ssd::ControllerConfig cfg;
    cfg.capacity = 64 * MiB;
    cfg.obs = &obs;
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    vm = std::make_unique<virt::Vm>(
        &sim, virt::VmConfig{.memory_bytes = 32 * MiB});
    NvmetroHost::Config hcfg;
    hcfg.obs = &obs;
    hcfg.costs = costs;
    host = std::make_unique<NvmetroHost>(&sim, phys.get(), hcfg);
    vc = host->CreateController(vm.get(), {.vm_id = 1});
    auto prog = classifier_asm ? ebpf::Assemble(classifier_asm)
                               : functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    ASSERT_TRUE(driver->Init(queues).ok());
  }

  void RunClosedLoop(int total, int depth, u16 queues = 1) {
    u64 buf = *vm->memory().AllocPages(1);
    int issued = 0;
    std::function<void(u16)> issue = [&](u16 q) {
      if (issued >= total) return;
      issued++;
      nvme::Sqe sqe = (issued % 3)
                          ? nvme::MakeRead(1, issued % 32, 1, buf, 0)
                          : nvme::MakeWrite(1, issued % 32, 1, buf, 0);
      driver->Submit(q, sqe, [&, q](NvmeStatus, u32) { issue(q); });
    };
    for (u16 q = 0; q < queues; q++) {
      for (int d = 0; d < depth; d++) issue(q);
    }
    sim.Run();
  }

  /// Analyzes the run's trace and asserts the exact-sum invariant.
  obs::SpanAnalyzer AnalyzeExact(u64 expect_requests) {
    obs::SpanAnalyzer an;
    an.Analyze(obs.trace());
    EXPECT_EQ(an.requests().size(), expect_requests);
    EXPECT_EQ(an.truncated_spans(), 0u);
    EXPECT_EQ(an.open_spans(), 0u);
    std::string err;
    EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
    return an;
  }
};

TEST_F(SpanRouterFixture, FastPathExactAttribution) {
  Build();  // passthrough: everything WILL_COMPLETE_HQ
  RunClosedLoop(50, 2);
  obs::SpanAnalyzer an = AnalyzeExact(50);
  const auto& agg = an.by_path()[static_cast<usize>(obs::PathClass::kFast)];
  EXPECT_EQ(agg.requests, 50u);
  // Router-side hooks (pop, classify, dispatch, harvest+post) all run
  // inside single handler invocations, so their deltas are zero sim-time:
  // the ONLY stage that accrues wall time on the fast path is the device.
  EXPECT_EQ(an.StageSignature(obs::PathClass::kFast), "device");
  // ... which means device time accounts for the entire e2e latency.
  u64 e2e_total = 0;
  for (const obs::RequestBreakdown& bd : an.requests()) e2e_total += bd.e2e_ns;
  EXPECT_GT(e2e_total, 0u);
  EXPECT_EQ(agg.stage_sum_ns[static_cast<usize>(obs::Stage::kDevice)],
            e2e_total);
  // Per-VM aggregation sees the same population.
  ASSERT_EQ(an.by_vm().count(1), 1u);
  EXPECT_EQ(an.by_vm().at(1).requests, 50u);
  EXPECT_NE(an.RenderTable().find("path=fast"), std::string::npos);
}

TEST_F(SpanRouterFixture, KernelPathExactAttribution) {
  const char* kAllToKernel =
      "  mov r0, 0x480000\n"  // SEND_KQ | WILL_COMPLETE_KQ
      "  exit\n";
  Build(kAllToKernel);
  auto kdev =
      std::make_unique<kblock::NvmeBlockDevice>(&sim, phys.get(), &dma, 1);
  vc->AttachKernelDevice(kdev.get());
  RunClosedLoop(30, 2);
  obs::SpanAnalyzer an = AnalyzeExact(30);
  const auto& agg = an.by_path()[static_cast<usize>(obs::PathClass::kKernel)];
  EXPECT_EQ(agg.requests, 30u);
  // KBIO_DONE splits device service from mailbox residency: both the
  // device and harvest stages accrue wall time on the kernel path (the
  // KCQ is drained by a later poll), while the instantaneous router-side
  // hooks contribute zero.
  EXPECT_EQ(an.StageSignature(obs::PathClass::kKernel), "device+harvest");
  EXPECT_GT(agg.stage_sum_ns[static_cast<usize>(obs::Stage::kDevice)], 0u);
  EXPECT_GT(agg.stage_sum_ns[static_cast<usize>(obs::Stage::kHarvest)], 0u);
}

TEST_F(SpanRouterFixture, NotifyPathExactAttribution) {
  const char* kAllToUif =
      "  mov r0, 0x240000\n"  // SEND_NQ | WILL_COMPLETE_NQ
      "  exit\n";
  Build(kAllToUif);
  NotifyChannel channel;
  uif::UifHostParams params;
  params.obs = &obs;
  uif::UifHost uif_host(&sim, "echo", params);
  EchoUif echo;
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &echo);
  uif_host.Start();
  RunClosedLoop(30, 2);
  obs::SpanAnalyzer an = AnalyzeExact(30);
  const auto& agg = an.by_path()[static_cast<usize>(obs::PathClass::kNotify)];
  EXPECT_EQ(agg.requests, 30u);
  // The doorbell-to-worker handoff (uif_queue) and the NCQ harvest poll
  // take wall time; EchoUif responds inside the worker's handler, so
  // uif_service is instantaneous, like the router-side hooks.
  EXPECT_EQ(an.StageSignature(obs::PathClass::kNotify), "uif_queue+harvest");
  EXPECT_GT(agg.stage_sum_ns[static_cast<usize>(obs::Stage::kUifQueue)], 0u);
  EXPECT_EQ(agg.stage_sum_ns[static_cast<usize>(obs::Stage::kUifService)], 0u);
}

TEST_F(SpanRouterFixture, FanoutPathExactAttribution) {
  Build(functions::ReplicatorClassifierAsm());
  NotifyChannel channel;
  uif::UifHostParams params;
  params.obs = &obs;
  uif::UifHost uif_host(&sim, "repl", params);
  kblock::RamBlockDevice secondary(&sim, 32 * MiB);
  functions::ReplicatorUif repl(&secondary);
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &repl);
  uif_host.Start();
  RunClosedLoop(30, 2);
  // Reads go fast-path, writes mirror onto fast+notify.
  obs::SpanAnalyzer an = AnalyzeExact(30);
  const auto& fan = an.by_path()[static_cast<usize>(obs::PathClass::kFanout)];
  const auto& fast = an.by_path()[static_cast<usize>(obs::PathClass::kFast)];
  EXPECT_GT(fan.requests, 0u);
  EXPECT_GT(fast.requests, 0u);
  EXPECT_EQ(fan.requests + fast.requests, 30u);
}

TEST_F(SpanRouterFixture, DirectPathExactAttribution) {
  // ReadOnly rejects writes at the classifier: no dispatch stage at all.
  Build(functions::ReadOnlyClassifierAsm());
  RunClosedLoop(30, 2);
  obs::SpanAnalyzer an = AnalyzeExact(30);
  const auto& agg = an.by_path()[static_cast<usize>(obs::PathClass::kDirect)];
  EXPECT_GT(agg.requests, 0u);  // the writes (every third request)
  // A classifier rejection completes within the pop handler itself: the
  // whole span is instantaneous, so no stage accrues time and the
  // guest-visible e2e latency is exactly zero.
  EXPECT_EQ(an.StageSignature(obs::PathClass::kDirect), "");
  EXPECT_EQ(agg.e2e.max(), 0u);
  for (const obs::RequestBreakdown& bd : an.requests()) {
    if (bd.path != obs::PathClass::kDirect) continue;
    EXPECT_EQ(bd.stage_ns[static_cast<usize>(obs::Stage::kDevice)], 0u);
    EXPECT_EQ(bd.stage_ns[static_cast<usize>(obs::Stage::kDispatch)], 0u);
  }
}

TEST_F(SpanRouterFixture, BatchedPipelineKeepsExactAttribution) {
  costs.max_batch = 32;
  Build(nullptr, 4);
  // Several guest queues at depth: real multi-command batches form, BATCH
  // events appear in spans, and attribution must still sum exactly.
  RunClosedLoop(200, 8, 4);
  obs::SpanAnalyzer an = AnalyzeExact(200);
  const LatencyHistogram* bs = obs.metrics().FindHistogram("router.batch_size");
  ASSERT_NE(bs, nullptr);
  EXPECT_GT(bs->max(), 1u);  // real multi-command batches formed
  const auto& agg = an.by_path()[static_cast<usize>(obs::PathClass::kFast)];
  EXPECT_EQ(agg.requests, 200u);
}

}  // namespace
}  // namespace nvmetro::core

// --- Exact attribution under fault recovery ----------------------------------

namespace nvmetro::baselines {
namespace {

struct FaultSpanTest : ::testing::Test {
  obs::Observability obs;  // declared first: outlives drive + bundle
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<SolutionBundle> bundle;

  void Build(SolutionKind kind, SolutionParams params = {}) {
    ssd::ControllerConfig drive = Testbed::DefaultDrive();
    drive.obs = &obs;
    tb = std::make_unique<Testbed>(drive);
    injector = std::make_unique<fault::FaultInjector>(&tb->sim, &obs);
    params.obs = &obs;
    params.fault = injector.get();
    bundle = SolutionBundle::Create(tb.get(), kind, params);
    ASSERT_NE(bundle, nullptr);
  }

  void SubmitReads(int n) {
    StorageSolution* sol = bundle->vm_solution(0);
    for (int i = 0; i < n; i++) {
      sol->Submit(i % 4, StorageSolution::Op::kRead,
                  static_cast<u64>(i) * 4096, 4096, nullptr, [](Status) {});
    }
    tb->sim.Run();
  }
};

TEST_F(FaultSpanTest, RetriedRequestsStillSumExactly) {
  SolutionParams params;
  params.router_costs.max_retries = 8;
  Build(SolutionKind::kNvmetro, params);
  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kDelayedError,
                         .count = 6,
                         .status = nvme::MakeStatus(
                             nvme::kSctGeneric, nvme::kScNamespaceNotReady),
                         .delay_ns = 20 * kUs});
  injector->Arm(plan);
  SubmitReads(16);

  EXPECT_EQ(obs.metrics().CounterValue("router.retries"), 6u);
  obs::SpanAnalyzer an;
  an.Analyze(obs.trace());
  EXPECT_EQ(an.requests().size(), 16u);
  EXPECT_EQ(an.open_spans(), 0u);
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
  // The retry backoff was attributed, not lost: some request carries
  // non-zero retry_wait time.
  u64 retry_ns = 0;
  for (const obs::RequestBreakdown& bd : an.requests()) {
    retry_ns += bd.stage_ns[static_cast<usize>(obs::Stage::kRetryWait)];
  }
  EXPECT_GT(retry_ns, 0u);
}

TEST_F(FaultSpanTest, TimedOutRequestsStillSumExactly) {
  SolutionParams params;
  params.router_costs.request_timeout_ns = 2 * kMs;
  Build(SolutionKind::kNvmetro, params);
  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kCommandStall, .count = 4});
  injector->Arm(plan);
  SubmitReads(16);

  EXPECT_EQ(obs.metrics().CounterValue("router.timeouts"), 4u);
  obs::SpanAnalyzer an;
  an.Analyze(obs.trace());
  EXPECT_EQ(an.requests().size(), 16u);
  EXPECT_EQ(an.open_spans(), 0u);
  std::string err;
  EXPECT_TRUE(an.CheckExactAttribution(&err)) << err;
  // Timed-out requests attribute their wait to the failover stage.
  u64 failover_ns = 0;
  for (const obs::RequestBreakdown& bd : an.requests()) {
    failover_ns += bd.stage_ns[static_cast<usize>(obs::Stage::kFailover)];
  }
  EXPECT_GT(failover_ns, 0u);
  // The whole faulty run exports cleanly through both strict validators.
  std::string verr;
  EXPECT_TRUE(
      obs::ValidateTraceEventJson(obs::ExportPerfettoJson(obs.trace()), &verr))
      << verr;
  EXPECT_TRUE(obs::ValidatePrometheusText(
      obs::ExportPrometheusText(obs.metrics()), &verr))
      << verr;
}

}  // namespace
}  // namespace nvmetro::baselines
