// Observability layer tests: metrics-registry semantics, trace-ring
// mechanics, and — the point of the layer — golden traces pinning the
// exact lifecycle-hook sequence of every routing path. The simulation is
// deterministic, so these strings are bit-stable: any change to routing
// order shows up here as a diff, not as a silent regression.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <cstring>

#include "common/histogram.h"
#include "core/notify.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "functions/classifiers.h"
#include "functions/replicator_uif.h"
#include "kblock/devices.h"
#include "kv/pushdown.h"
#include "mem/address_space.h"
#include "nvme/prp.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "ssd/controller.h"
#include "uif/framework.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::obs {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CounterFindOrCreateStablePointer) {
  MetricsRegistry m;
  Counter* a = m.GetCounter("router.requests");
  Counter* b = m.GetCounter("router.requests");
  EXPECT_EQ(a, b);  // find-or-create, not create-duplicate
  a->Inc();
  a->Inc(41);
  EXPECT_EQ(b->value(), 42u);
  EXPECT_EQ(m.CounterValue("router.requests"), 42u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(MetricsRegistryTest, CountersAreMonotonic) {
  MetricsRegistry m;
  Counter* c = m.GetCounter("c");
  u64 prev = 0;
  for (int i = 0; i < 100; i++) {
    c->Inc(i % 3);
    EXPECT_GE(c->value(), prev);
    prev = c->value();
  }
}

TEST(MetricsRegistryTest, FindOnlyNeverCreates) {
  MetricsRegistry m;
  EXPECT_EQ(m.FindCounter("nope"), nullptr);
  EXPECT_EQ(m.FindGauge("nope"), nullptr);
  EXPECT_EQ(m.FindHistogram("nope"), nullptr);
  EXPECT_EQ(m.CounterValue("nope"), 0u);  // absent reads as zero
  EXPECT_EQ(m.size(), 0u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry m;
  Gauge* g = m.GetGauge("queue.depth");
  g->Set(5);
  g->Add(-7);
  EXPECT_EQ(g->value(), -2);  // may dip negative transiently
  EXPECT_EQ(m.FindGauge("queue.depth")->value(), -2);
  EXPECT_EQ(g->max(), 5);  // the watermark survives the dip
  g->Add(9);
  EXPECT_EQ(g->value(), 7);
  EXPECT_EQ(g->max(), 7);  // Add() moves the watermark too
}

TEST(MetricsRegistryTest, GaugeWatermarkNeverNegative) {
  MetricsRegistry m;
  Gauge* g = m.GetGauge("depth");
  g->Set(-4);
  EXPECT_EQ(g->value(), -4);
  EXPECT_EQ(g->max(), 0);  // never went above its implicit start of 0
  m.Reset();
  g->Set(3);
  g->Set(1);
  EXPECT_EQ(g->max(), 3);  // reset cleared the old watermark
}

TEST(MetricsRegistryTest, HistogramMatchesCommonHistogram) {
  // The registry must hand out plain common/histogram instances: same
  // samples -> identical quantiles as a standalone LatencyHistogram.
  MetricsRegistry m;
  LatencyHistogram* h = m.GetHistogram("router.latency_ns");
  LatencyHistogram ref;
  for (u64 v = 1; v <= 10'000; v += 7) {
    h->Record(v);
    ref.Record(v);
  }
  EXPECT_EQ(h->count(), ref.count());
  EXPECT_EQ(h->Median(), ref.Median());
  EXPECT_EQ(h->P99(), ref.P99());
  EXPECT_EQ(h->max(), ref.max());
  EXPECT_DOUBLE_EQ(h->Mean(), ref.Mean());
}

TEST(MetricsRegistryTest, SnapshotIsIsolatedFromLaterMutation) {
  MetricsRegistry m;
  Counter* c = m.GetCounter("a.count");
  Gauge* g = m.GetGauge("a.level");
  LatencyHistogram* h = m.GetHistogram("a.lat");
  c->Inc(3);
  g->Set(9);
  h->Record(1000);
  MetricsRegistry::Snapshot snap = m.TakeSnapshot();
  c->Inc(100);
  g->Set(-1);
  h->Record(5'000'000);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "a.level");
  EXPECT_EQ(snap.gauges[0].value, 9);
  EXPECT_EQ(snap.gauges[0].max, 9);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_LT(snap.histograms[0].max, 5'000'000u);
}

TEST(MetricsRegistryTest, ExportsTextAndJson) {
  MetricsRegistry m;
  m.GetCounter("b.count")->Inc(7);
  m.GetGauge("b.level")->Set(2);
  m.GetHistogram("b.lat")->Record(500);
  std::string text = m.ToText();
  EXPECT_NE(text.find("b.count"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  std::string json = m.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":7"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line for tooling
}

// --- JSON validity ------------------------------------------------------------
//
// A minimal strict JSON parser (objects, strings with escapes, numbers):
// enough to round-trip MetricsRegistry::ToJson and reject anything a real
// tool would reject — trailing commas, unescaped control characters, bare
// NaN. Returns the parsed value so tests can assert on content, not just
// shape.

struct JsonValue {
  enum class Kind { kObject, kNumber, kString } kind = Kind::kNumber;
  double num = 0;
  std::string str;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      pos_++;
    }
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    pos_++;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      pos_++;
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->object.emplace(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        pos_++;
        continue;  // strict: the next token must be a key, not '}'
      }
      if (s_[pos_] == '}') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    pos_++;
    out->clear();
    while (pos_ < s_.size()) {
      unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        pos_++;
        return true;
      }
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        pos_++;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 >= s_.size()) return false;
            unsigned int cp = 0;
            for (int i = 1; i <= 4; i++) {
              char h = s_[pos_ + i];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            if (cp > 0xff) return false;  // names here are byte strings
            out->push_back(static_cast<char>(cp));
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
        pos_++;
        continue;
      }
      out->push_back(static_cast<char>(c));
      pos_++;
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    usize start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') pos_++;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      pos_++;
    }
    if (pos_ == start) return false;  // also rejects NaN / inf / true
    out->kind = JsonValue::Kind::kNumber;
    try {
      out->num = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return true;
  }

  const std::string& s_;
  usize pos_ = 0;
};

TEST(MetricsRegistryTest, JsonExportRoundTripsThroughStrictParser) {
  MetricsRegistry m;
  m.GetCounter("router.requests")->Inc(12345);
  m.GetGauge("router.inflight")->Set(-3);
  m.GetHistogram("router.lat")->Record(777);
  JsonValue root;
  ASSERT_TRUE(JsonParser(m.ToJson()).Parse(&root)) << m.ToJson();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(root.object.count("counters"), 1u);
  ASSERT_EQ(root.object.count("gauges"), 1u);
  ASSERT_EQ(root.object.count("histograms"), 1u);
  EXPECT_EQ(root.object["counters"].object["router.requests"].num, 12345.0);
  JsonValue& g = root.object["gauges"].object["router.inflight"];
  ASSERT_EQ(g.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(g.object["value"].num, -3.0);
  EXPECT_EQ(g.object["max"].num, 0.0);  // never went positive
  JsonValue& h = root.object["histograms"].object["router.lat"];
  ASSERT_EQ(h.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(h.object["count"].num, 1.0);
  EXPECT_EQ(h.object["p50_ns"].num, 777.0);
  EXPECT_EQ(h.object["p999_ns"].num, 777.0);
  EXPECT_EQ(h.object["sum_ns"].num, 777.0);
}

TEST(MetricsRegistryTest, JsonExportEscapesHostileNames) {
  MetricsRegistry m;
  const std::string hostile = "evil\"name\\with\nnewline\tand\x01ctrl";
  m.GetCounter(hostile)->Inc(1);
  m.GetCounter("plain.name")->Inc(2);
  std::string json = m.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);  // still one line
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  // The escaped name decodes back to the original bytes.
  ASSERT_EQ(root.object["counters"].object.count(hostile), 1u) << json;
  EXPECT_EQ(root.object["counters"].object[hostile].num, 1.0);
  EXPECT_EQ(root.object["counters"].object["plain.name"].num, 2.0);
}

TEST(MetricsRegistryTest, JsonExportEmptyAndEmptyNameAreValid) {
  MetricsRegistry empty;
  JsonValue root;
  ASSERT_TRUE(JsonParser(empty.ToJson()).Parse(&root));
  EXPECT_TRUE(root.object["counters"].object.empty());

  MetricsRegistry m;
  m.GetCounter("")->Inc(9);  // degenerate but must not corrupt the export
  m.GetHistogram("h");       // empty histogram: mean must print as 0.0
  JsonValue root2;
  ASSERT_TRUE(JsonParser(m.ToJson()).Parse(&root2)) << m.ToJson();
  EXPECT_EQ(root2.object["counters"].object[""].num, 9.0);
  EXPECT_EQ(root2.object["histograms"].object["h"].object["mean_ns"].num,
            0.0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsPointers) {
  MetricsRegistry m;
  Counter* c = m.GetCounter("c");
  LatencyHistogram* h = m.GetHistogram("h");
  c->Inc(5);
  h->Record(100);
  m.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(m.GetCounter("c"), c);  // same object, still registered
  c->Inc();
  EXPECT_EQ(m.CounterValue("c"), 1u);
}

// --- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorderTest, RingWrapsAndKeepsNewest) {
  Observability obs({.ring_capacity = 4});
  FlightRing* ring = obs.flight().RegisterRing(1, 0);
  TraceRecorder& tr = obs.trace();
  for (u64 i = 1; i <= 10; i++) ring->Stamp(i * 10, i, SpanKind::kVsqPop);
  EXPECT_EQ(ring->capacity(), 4u);
  EXPECT_EQ(ring->held(), 4u);
  EXPECT_EQ(tr.total_recorded(), 10u);
  std::vector<FlightRecord> evs = tr.Events();
  ASSERT_EQ(evs.size(), 4u);
  // Chronological, oldest retained first: records 7..10 survive.
  for (u64 i = 0; i < 4; i++) EXPECT_EQ(evs[i].req_id, 7 + i);
  // Overwritten requests have no retained records.
  EXPECT_TRUE(tr.EventsFor(1).empty());
  EXPECT_EQ(tr.EventsFor(9).size(), 1u);
}

TEST(TraceRecorderTest, OpenCloseAccountingDetectsLeaks) {
  Observability obs;
  TraceRecorder& tr = obs.trace();
  u64 a = tr.BeginRequest();
  u64 b = tr.BeginRequest();
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);  // ids are monotonic from 1
  EXPECT_EQ(tr.open_requests(), 2u);
  tr.EndRequest();
  EXPECT_EQ(tr.open_requests(), 1u);  // one span still open -> a leak
  tr.EndRequest();
  EXPECT_EQ(tr.open_requests(), 0u);
  EXPECT_EQ(tr.requests_opened(), 2u);
  EXPECT_EQ(tr.requests_closed(), 2u);
}

TEST(TraceRecorderTest, PathStringJoinsHookNames) {
  Observability obs({.ring_capacity = 16});
  FlightRing* ring = obs.flight().RegisterRing(1, 0);
  TraceRecorder& tr = obs.trace();
  u64 id = tr.BeginRequest();
  ring->Stamp(100, id, SpanKind::kVsqPop);
  ring->Stamp(110, id, SpanKind::kClassifier, 0x120000, 0, 0, 0,
              /*hook=kHookVsq*/ 0);
  ring->Stamp(120, id, SpanKind::kDispatchFast);
  ring->Stamp(125, 999, SpanKind::kVsqPop);  // other request interleaved
  ring->Stamp(130, id, SpanKind::kHcqComplete);
  EXPECT_EQ(tr.PathString(id),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > HCQ_COMPLETE");
  std::string line = TraceRecorder::FormatEvent(tr.EventsFor(id)[1], 1);
  EXPECT_NE(line.find("CLASSIFIER(VSQ)"), std::string::npos);
  EXPECT_NE(line.find("0x120000"), std::string::npos);
  std::string dump = tr.DumpRequest(id);
  EXPECT_NE(dump.find("VSQ_POP"), std::string::npos);
  EXPECT_NE(dump.find("HCQ_COMPLETE"), std::string::npos);
  EXPECT_NE(dump.find("vm=1"), std::string::npos);  // the ring's VM
}

TEST(TraceRecorderTest, ResetDropsEventsKeepsCapacity) {
  Observability obs({.ring_capacity = 8});
  FlightRing* ring = obs.flight().RegisterRing(1, 0);
  TraceRecorder& tr = obs.trace();
  tr.BeginRequest();
  ring->Stamp(10, 1, SpanKind::kVsqPop);
  tr.Reset();
  EXPECT_TRUE(tr.Events().empty());
  EXPECT_EQ(tr.total_recorded(), 0u);
  EXPECT_EQ(tr.open_requests(), 0u);
  EXPECT_EQ(ring->capacity(), 8u);
  EXPECT_EQ(tr.BeginRequest(), 1u);  // ids restart too
}

}  // namespace
}  // namespace nvmetro::obs

// --- Golden traces through the real router -----------------------------------

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

/// Echoes success synchronously: the framework responds on work()==false.
struct EchoUif : uif::UifBase {
  bool work(const nvme::Sqe&, u32, u16& status) override {
    status = nvme::kStatusSuccess;
    return false;
  }
};

struct ObsRouterFixture : ::testing::Test {
  obs::Observability obs;  // must outlive every component caching pointers
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<NvmetroHost> host;
  VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;

  void Build(const char* classifier_asm = nullptr) {
    ssd::ControllerConfig cfg;
    cfg.capacity = 64 * MiB;
    cfg.obs = &obs;
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    vm = std::make_unique<virt::Vm>(
        &sim, virt::VmConfig{.memory_bytes = 32 * MiB});
    NvmetroHost::Config hcfg;
    hcfg.obs = &obs;
    host = std::make_unique<NvmetroHost>(&sim, phys.get(), hcfg);
    vc = host->CreateController(vm.get(), {.vm_id = 1});
    auto prog = classifier_asm ? ebpf::Assemble(classifier_asm)
                               : functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    ASSERT_TRUE(driver->Init(1).ok());
  }

  /// Submits one I/O, runs to completion, returns its trace-span id.
  u64 RunOne(bool write, u64 lba, NvmeStatus* status_out = nullptr) {
    u64 buf = *vm->memory().AllocPages(1);
    nvme::Sqe s = write ? nvme::MakeWrite(1, lba, 1, buf, 0)
                        : nvme::MakeRead(1, lba, 1, buf, 0);
    NvmeStatus status = 0xFFF;
    driver->Submit(0, s, [&](NvmeStatus st, u32) { status = st; });
    sim.Run();
    if (status_out) *status_out = status;
    return obs.trace().requests_opened();
  }
};

TEST_F(ObsRouterFixture, FastPathGoldenTrace) {
  Build();  // passthrough: everything WILL_COMPLETE_HQ
  NvmeStatus st = 0;
  u64 id = RunOne(false, 0, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  ASSERT_EQ(id, 1u);
  EXPECT_EQ(obs.trace().PathString(id),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > HCQ_COMPLETE > "
            "VCQ_POST > IRQ_INJECT");
  EXPECT_EQ(obs.trace().open_requests(), 0u);

  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.requests"), 1u);
  EXPECT_EQ(m.CounterValue("router.completed"), 1u);
  EXPECT_EQ(m.CounterValue("router.failed"), 0u);
  EXPECT_EQ(m.CounterValue("router.classifier.runs"), 1u);
  EXPECT_EQ(m.CounterValue("router.fast.sends"), 1u);
  EXPECT_EQ(m.CounterValue("router.fast.completions"), 1u);
  EXPECT_EQ(m.CounterValue("router.notify.sends"), 0u);
  EXPECT_EQ(m.CounterValue("router.kernel.sends"), 0u);
  EXPECT_EQ(m.CounterValue("router.irq.injects"), 1u);
  EXPECT_EQ(m.CounterValue("ssd.commands"), 1u);
  ASSERT_NE(m.FindHistogram("router.latency_ns"), nullptr);
  EXPECT_EQ(m.FindHistogram("router.latency_ns")->count(), 1u);
  EXPECT_EQ(m.FindHistogram("router.fast.latency_ns")->count(), 1u);
  // Timestamps are monotone along the request's span sequence.
  auto evs = obs.trace().EventsFor(id);
  for (usize i = 1; i < evs.size(); i++) EXPECT_GE(evs[i].t, evs[i - 1].t);
  // The router worker's poller published its own counters.
  EXPECT_GT(m.CounterValue("nvmetro.router0.dispatches"), 0u);
}

TEST_F(ObsRouterFixture, KernelPathGoldenTrace) {
  const char* kAllToKernel =
      "  mov r0, 0x480000\n"  // SEND_KQ | WILL_COMPLETE_KQ
      "  exit\n";
  Build(kAllToKernel);
  auto kdev =
      std::make_unique<kblock::NvmeBlockDevice>(&sim, phys.get(), &dma, 1);
  vc->AttachKernelDevice(kdev.get());
  NvmeStatus st = 0;
  u64 id = RunOne(true, 4, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  ASSERT_EQ(id, 1u);
  EXPECT_EQ(obs.trace().PathString(id),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_KERNEL > KBIO_DONE > "
            "KCQ_COMPLETE > VCQ_POST > IRQ_INJECT");
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.kernel.sends"), 1u);
  EXPECT_EQ(m.CounterValue("router.kernel.completions"), 1u);
  EXPECT_EQ(m.CounterValue("router.fast.sends"), 0u);
  EXPECT_EQ(m.FindHistogram("router.kernel.latency_ns")->count(), 1u);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_F(ObsRouterFixture, NotifyPathGoldenTrace) {
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

  NvmeStatus st = 0;
  u64 id = RunOne(true, 0, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  ASSERT_EQ(id, 1u);
  EXPECT_EQ(obs.trace().PathString(id),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_NOTIFY > UIF_WORK > "
            "UIF_RESPOND > NCQ_COMPLETE > VCQ_POST > IRQ_INJECT");
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.notify.sends"), 1u);
  EXPECT_EQ(m.CounterValue("router.notify.completions"), 1u);
  EXPECT_EQ(m.CounterValue("uif.requests"), 1u);
  EXPECT_EQ(m.CounterValue("uif.responses"), 1u);
  EXPECT_EQ(m.FindHistogram("router.notify.latency_ns")->count(), 1u);
  // The UIF process's adaptive poller published under "<name>.poller".
  EXPECT_GT(m.CounterValue("echo.poller.dispatches"), 0u);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_F(ObsRouterFixture, MirrorFanoutGoldenTrace) {
  // Replicator write: fast path AND notify path in one request; the
  // request completes only when both legs do. The secondary (RAM) leg
  // responds before the primary flash write finishes, so NCQ precedes
  // HCQ in the golden ordering.
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

  NvmeStatus st = 0;
  u64 id = RunOne(true, 8, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  ASSERT_EQ(id, 1u);
  EXPECT_EQ(obs.trace().PathString(id),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > DISPATCH_NOTIFY > "
            "UIF_WORK > UIF_RESPOND > NCQ_COMPLETE > HCQ_COMPLETE > "
            "VCQ_POST > IRQ_INJECT");
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.fast.sends"), 1u);
  EXPECT_EQ(m.CounterValue("router.notify.sends"), 1u);
  EXPECT_EQ(m.CounterValue("router.fast.completions"), 1u);
  EXPECT_EQ(m.CounterValue("router.notify.completions"), 1u);
  EXPECT_EQ(m.CounterValue("router.completed"), 1u);  // one guest CQE
  // Multi-path request: counted in the overall latency histogram but in
  // no single-path one.
  EXPECT_EQ(m.FindHistogram("router.latency_ns")->count(), 1u);
  EXPECT_EQ(m.FindHistogram("router.fast.latency_ns")->count(), 0u);
  EXPECT_EQ(m.FindHistogram("router.notify.latency_ns")->count(), 0u);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_F(ObsRouterFixture, DirectMediationGoldenTrace) {
  // ReadOnly rejects writes at the classifier: the request never leaves
  // the mediation layer — no dispatch span, straight to the VCQ.
  Build(functions::ReadOnlyClassifierAsm());
  NvmeStatus st = 0;
  u64 id = RunOne(true, 0, &st);
  EXPECT_FALSE(nvme::StatusOk(st));
  ASSERT_EQ(id, 1u);
  EXPECT_EQ(obs.trace().PathString(id),
            "VSQ_POP > CLASSIFIER(VSQ) > VCQ_POST > IRQ_INJECT");
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.fast.sends"), 0u);
  EXPECT_EQ(m.CounterValue("router.notify.sends"), 0u);
  EXPECT_EQ(m.CounterValue("router.kernel.sends"), 0u);
  EXPECT_EQ(m.CounterValue("router.completed"), 1u);  // completed w/ error
  EXPECT_EQ(m.CounterValue("ssd.commands"), 0u);  // device never touched
  // The rejection status is on the VCQ_POST span.
  auto evs = obs.trace().EventsFor(id);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[2].status, st);
  EXPECT_EQ(obs.trace().open_requests(), 0u);

  // Reads still flow: the next request takes the translated fast path.
  u64 id2 = RunOne(false, 0, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  EXPECT_EQ(obs.trace().PathString(id2),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > HCQ_COMPLETE > "
            "VCQ_POST > IRQ_INJECT");
}

TEST_F(ObsRouterFixture, ResubmitChainTraceAndResubmitStageAttribution) {
  // A runaway self-referential pushdown chain: the read resubmits until
  // the depth bound (8), so its trace carries exactly 8 RESUBMIT spans,
  // the chain telemetry lands in router.resubmits/router.chain_depth,
  // and SpanAnalyzer charges the hook-rerun time to the dedicated
  // resubmit stage while still summing exactly to e2e.
  Build(functions::PushdownLookupClassifierAsm());
  mem::GuestMemory& gm = vm->memory();
  u64 buf = *gm.AllocPages(2);
  nvme::PrpChain chain = *nvme::BuildPrps(gm, buf, kv::kPushdownBlockBytes);

  std::vector<u8> block(kv::kPushdownBlockBytes, 0);
  u64 word0 = (static_cast<u64>(kv::kPushdownMagic) << 32) | 1;  // level 1
  u64 nkeys = kv::kPushdownFanout;
  memcpy(block.data(), &word0, 8);
  memcpy(block.data() + 8, &nkeys, 8);
  for (u32 i = 0; i < kv::kPushdownFanout; i++) {
    u64 key = i;
    u64 child_lba = 0;  // every child is itself
    memcpy(block.data() + kv::kPushdownHeaderBytes + i * 16, &key, 8);
    memcpy(block.data() + kv::kPushdownHeaderBytes + i * 16 + 8, &child_lba,
           8);
  }
  (void)nvme::PrpWrite(gm, chain.prp1, chain.prp2, kv::kPushdownBlockBytes,
                       block.data());
  auto submit = [&](u8 opcode, u64 key) {
    nvme::Sqe sqe;
    sqe.opcode = opcode;
    sqe.nsid = 1;
    sqe.prp1 = chain.prp1;
    sqe.prp2 = chain.prp2;
    sqe.cdw2 = static_cast<u32>(key);
    sqe.set_slba(0);
    sqe.set_nlb0(kv::kPushdownLbasPerBlock - 1);
    NvmeStatus status = 0xFFF;
    driver->Submit(0, sqe, [&](NvmeStatus st, u32) { status = st; });
    sim.Run();
    return status;
  };
  ASSERT_EQ(submit(nvme::kCmdWrite, 0), nvme::kStatusSuccess);
  EXPECT_NE(submit(nvme::kCmdRead, 5), nvme::kStatusSuccess);

  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.resubmits"), 8u);
  ASSERT_NE(m.FindHistogram("router.chain_depth"), nullptr);
  EXPECT_EQ(m.FindHistogram("router.chain_depth")->count(), 1u);
  EXPECT_EQ(m.FindHistogram("router.chain_depth")->max(), 8u);

  // The read is request 2 (the image write was 1); its path string shows
  // one RESUBMIT per chain hop.
  std::string path = obs.trace().PathString(2);
  usize hops = 0;
  for (usize pos = path.find("RESUBMIT"); pos != std::string::npos;
       pos = path.find("RESUBMIT", pos + 1)) {
    hops++;
  }
  EXPECT_EQ(hops, 8u) << path;

  obs::SpanAnalyzer an;
  an.Analyze(obs.trace());
  std::string err;
  ASSERT_TRUE(an.CheckExactAttribution(&err)) << err;
  const obs::RequestBreakdown* bd = nullptr;
  for (const obs::RequestBreakdown& r : an.requests()) {
    if (r.req_id == 2) bd = &r;
  }
  ASSERT_NE(bd, nullptr);
  // The classifier hook reruns in the same discrete-event instant as the
  // device completion that feeds it, so the chain's wall time is all
  // device crossings: one per hop, zero in the resubmit stage itself.
  // (The synthetic-trace test pins the nonzero resubmit-stage math.)
  EXPECT_EQ(bd->stage_ns[static_cast<usize>(obs::Stage::kResubmit)], 0u);
  EXPECT_GT(bd->stage_ns[static_cast<usize>(obs::Stage::kDevice)], 0u);
  EXPECT_EQ(bd->StageSum(), bd->e2e_ns);
}

TEST_F(ObsRouterFixture, MdevTraceHasNoClassifierSpan) {
  Build();
  vc->SetFixedTranslationMode(true);  // MDev: in-kernel translation
  NvmeStatus st = 0;
  u64 id = RunOne(false, 0, &st);
  EXPECT_EQ(st, nvme::kStatusSuccess);
  EXPECT_EQ(obs.trace().PathString(id),
            "VSQ_POP > DISPATCH_FAST > HCQ_COMPLETE > VCQ_POST > "
            "IRQ_INJECT");
  EXPECT_EQ(obs.metrics().CounterValue("router.classifier.runs"), 0u);
}

TEST_F(ObsRouterFixture, ErrorCompletionStampsStatusAndErrorCounter) {
  Build();
  phys->InjectError(
      1, nvme::MakeStatus(nvme::kSctMediaError, nvme::kScUnrecoveredRead), 1);
  NvmeStatus st = 0;
  u64 id = RunOne(false, 0, &st);
  EXPECT_EQ(st,
            nvme::MakeStatus(nvme::kSctMediaError, nvme::kScUnrecoveredRead));
  // The failed request still traces to a guest-visible completion.
  EXPECT_EQ(obs.trace().PathString(id),
            "VSQ_POP > CLASSIFIER(VSQ) > DISPATCH_FAST > HCQ_COMPLETE > "
            "VCQ_POST > IRQ_INJECT");
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.fast.errors"), 1u);
  EXPECT_EQ(m.CounterValue("ssd.errors"), 1u);
  EXPECT_EQ(m.CounterValue("ssd.injected"), 1u);
  auto evs = obs.trace().EventsFor(id);
  ASSERT_GE(evs.size(), 4u);
  EXPECT_EQ(evs[3].status, st);  // HCQ_COMPLETE carries the NVMe status
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

TEST_F(ObsRouterFixture, ManyRequestsBalanceAndLeaveNoOpenSpans) {
  Build();
  u64 buf = *vm->memory().AllocPages(1);
  int completed = 0, issued = 0;
  const int kTotal = 500;  // wraps nothing but crosses many IRQ batches
  std::function<void()> issue = [&] {
    if (issued >= kTotal) return;
    issued++;
    nvme::Sqe sqe = (issued % 2) ? nvme::MakeWrite(1, issued % 64, 1, buf, 0)
                                 : nvme::MakeRead(1, issued % 64, 1, buf, 0);
    driver->Submit(0, sqe, [&](NvmeStatus st, u32) {
      EXPECT_EQ(st, nvme::kStatusSuccess);
      completed++;
      issue();
    });
  };
  for (int d = 0; d < 8; d++) issue();
  sim.Run();
  EXPECT_EQ(completed, kTotal);
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.requests"), static_cast<u64>(kTotal));
  EXPECT_EQ(m.CounterValue("router.completed"), static_cast<u64>(kTotal));
  EXPECT_EQ(m.CounterValue("router.fast.sends"),
            m.CounterValue("router.fast.completions"));
  EXPECT_EQ(m.FindHistogram("router.latency_ns")->count(),
            static_cast<u64>(kTotal));
  EXPECT_EQ(obs.trace().requests_opened(), static_cast<u64>(kTotal));
  EXPECT_EQ(obs.trace().open_requests(), 0u);  // leak detector
  EXPECT_EQ(obs.trace().total_recorded(), static_cast<u64>(kTotal) * 6);
}

// --- Zero overhead when disabled ---------------------------------------------

struct StackResult {
  SimTime end_time = 0;
  u64 router_busy_ns = 0;
  u64 total_cpu_ns = 0;
};

/// Runs an identical closed-loop workload with or without observability
/// attached; simulated timing must be bit-identical either way.
StackResult RunStack(obs::Observability* obs) {
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  ssd::ControllerConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.obs = obs;
  ssd::SimulatedController phys(&sim, &dma, cfg);
  virt::Vm vm(&sim, virt::VmConfig{.memory_bytes = 32 * MiB});
  NvmetroHost::Config hcfg;
  hcfg.obs = obs;
  NvmetroHost host(&sim, &phys, hcfg);
  VirtualController* vc = host.CreateController(&vm, {.vm_id = 1});
  auto prog = functions::PassthroughClassifier();
  EXPECT_TRUE(prog.ok());
  EXPECT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
  host.Start();
  virt::GuestNvmeDriver driver(&vm, vc);
  EXPECT_TRUE(driver.Init(1).ok());

  u64 buf = *vm.memory().AllocPages(1);
  int issued = 0;
  std::function<void()> issue = [&] {
    if (issued >= 300) return;
    issued++;
    nvme::Sqe sqe = (issued % 3) ? nvme::MakeRead(1, issued % 32, 1, buf, 0)
                                 : nvme::MakeWrite(1, issued % 32, 1, buf, 0);
    driver.Submit(0, sqe, [&](NvmeStatus, u32) { issue(); });
  };
  for (int d = 0; d < 4; d++) issue();
  sim.Run();

  StackResult r;
  r.end_time = sim.now();
  r.router_busy_ns = host.worker(0)->busy_ns();
  r.total_cpu_ns = sim.TotalCpuBusyNs();
  return r;
}

TEST(ObsOverheadTest, DisabledAndEnabledTimingsAreIdentical) {
  StackResult off = RunStack(nullptr);
  obs::Observability obs;
  StackResult on = RunStack(&obs);
  // Recording never charges simulated CPU: enabling observability must
  // not move a single simulated nanosecond.
  EXPECT_EQ(on.end_time, off.end_time);
  EXPECT_EQ(on.router_busy_ns, off.router_busy_ns);
  EXPECT_EQ(on.total_cpu_ns, off.total_cpu_ns);
  // And the instrumented run did record.
  EXPECT_EQ(obs.metrics().CounterValue("router.requests"), 300u);
  EXPECT_EQ(obs.trace().open_requests(), 0u);
}

}  // namespace
}  // namespace nvmetro::core
