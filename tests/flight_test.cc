// Flight-recorder tests (DESIGN.md §16): record/ring mechanics, the
// trigger framework's freeze-dump-unfreeze discipline, dump round-trip
// fidelity (full 64-bit payloads included), the per-request truncation
// rule of FlightTimeline, and every anomaly source end to end through the
// real router.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/notify.h"
#include "core/router.h"
#include "ebpf/assembler.h"
#include "fault/fault.h"
#include "functions/classifiers.h"
#include "kv/pushdown.h"
#include "mem/address_space.h"
#include "mem/arena.h"
#include "nvme/prp.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "overload/overload.h"
#include "qos/qos.h"
#include "ssd/controller.h"
#include "uif/framework.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro::obs {
namespace {

// --- Record + ring mechanics -------------------------------------------------

TEST(FlightRecordTest, PackedLayoutAndEdgeNames) {
  EXPECT_EQ(sizeof(FlightRecord), 32u);
  EXPECT_STREQ(SpanKindName(SpanKind::kVsqPop), "VSQ_POP");
  EXPECT_STREQ(SpanKindName(SpanKind::kResubmit), "RESUBMIT");
  EXPECT_STREQ(SpanKindName(SpanKind::kFaultWindow), "FAULT_WINDOW");
  EXPECT_STREQ(SpanKindName(SpanKind::kTriggerFired), "TRIGGER_FIRED");
  EXPECT_STREQ(SpanKindName(SpanKind::kStaleCidDrop), "STALE_CID_DROP");
}

FlightRecord Rec(u64 t, u64 req_id, SpanKind kind) {
  FlightRecord r;
  r.t = t;
  r.req_id = req_id;
  r.kind = kind;
  return r;
}

TEST(FlightRingTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRing ring(1, 0, 5);
  EXPECT_EQ(ring.capacity(), 8u);
  FlightRing exact(1, 0, 16);
  EXPECT_EQ(exact.capacity(), 16u);
}

TEST(FlightRingTest, WrapKeepsNewestOldestFirst) {
  FlightRing ring(1, 0, 8);
  for (u64 i = 0; i < 20; i++) ring.Stamp(100 + i, i + 1, SpanKind::kVsqPop);
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.held(), 8u);
  std::vector<FlightRecord> out = ring.Records();
  ASSERT_EQ(out.size(), 8u);
  // Oldest retained record first: writes 12..19 survive the wrap.
  for (usize i = 0; i < out.size(); i++) {
    EXPECT_EQ(out[i].req_id, 13 + i);
    EXPECT_EQ(out[i].t, 112 + i);
  }
}

TEST(FlightRingTest, FreezeDropsAndCounts) {
  FlightRing ring(1, 0, 8);
  ring.Stamp(1, 1, SpanKind::kVsqPop);
  ring.set_frozen(true);
  ring.Stamp(2, 2, SpanKind::kVsqPop);
  ring.Stamp(3, 3, SpanKind::kVsqPop);
  EXPECT_EQ(ring.total(), 1u);
  EXPECT_EQ(ring.dropped_frozen(), 2u);
  ring.set_frozen(false);
  ring.Stamp(4, 4, SpanKind::kVsqPop);
  EXPECT_EQ(ring.total(), 2u);
  EXPECT_EQ(ring.dropped_frozen(), 2u);
}

TEST(FlightRecorderTest, RegisterRingIdempotentAndFind) {
  FlightRecorder rec(16);
  FlightRing* a = rec.RegisterRing(1, 0);
  FlightRing* b = rec.RegisterRing(1, 0);
  EXPECT_EQ(a, b);
  FlightRing* c = rec.RegisterRing(2, 0);
  EXPECT_NE(a, c);
  EXPECT_EQ(rec.Find(1, 0), a);
  EXPECT_EQ(rec.Find(2, 0), c);
  EXPECT_EQ(rec.Find(3, 0), nullptr);
  EXPECT_EQ(rec.rings().size(), 2u);
}

TEST(FlightRecorderTest, MarksRingAndGlobalFreeze) {
  FlightRecorder rec(16);
  FlightRing* r = rec.RegisterRing(1, 0);
  rec.Mark(50, SpanKind::kFaultWindow, 3);
  EXPECT_EQ(rec.marks().total(), 1u);
  std::vector<FlightRecord> marks = rec.marks().Records();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0].req_id, 0u);
  EXPECT_EQ(marks[0].t, 50u);
  EXPECT_EQ(marks[0].aux, 3u);
  // Freeze covers every ring, including marks, and late registrations.
  rec.Freeze();
  r->Stamp(60, 1, SpanKind::kVsqPop);
  rec.Mark(61, SpanKind::kFaultWindow, 2);
  FlightRing* late = rec.RegisterRing(1, 1);
  late->Stamp(62, 2, SpanKind::kVsqPop);
  EXPECT_EQ(rec.total_records(), 1u);  // only the mark before the freeze
  EXPECT_EQ(rec.dropped_while_frozen(), 3u);
  rec.Unfreeze();
  r->Stamp(70, 3, SpanKind::kVsqPop);
  EXPECT_EQ(r->total(), 1u);
}

// --- Trigger names + dump round-trip ----------------------------------------

TEST(FlightTriggerTest, NamesRoundTrip) {
  for (usize i = 0; i < kFlightTriggerCount; i++) {
    FlightTrigger t = static_cast<FlightTrigger>(i);
    FlightTrigger back = FlightTrigger::kCount;
    ASSERT_TRUE(FlightTriggerFromName(FlightTriggerName(t), &back))
        << FlightTriggerName(t);
    EXPECT_EQ(back, t);
  }
  FlightTrigger out;
  EXPECT_FALSE(FlightTriggerFromName("definitely_not_a_trigger", &out));
}

FlightDump MakeDump() {
  FlightDump d;
  d.trigger = FlightTrigger::kDeadlineAbort;
  d.t = 123456789;
  d.seq = 3;
  d.detail = "vm=1 req=42 outstanding=2";
  d.metrics_text = "# counters\nrouter_requests_total 17\n";
  d.timeseries_csv = "t_ns,iops\n1000000,250\n";
  FlightDump::RingDump ring;
  ring.vm_id = 1;
  ring.queue = 0;
  ring.capacity = 8;
  ring.total = 12;
  ring.dropped_frozen = 1;
  for (u64 i = 0; i < 4; i++) {
    FlightRecord r = Rec(1000 + i * 10, 42, SpanKind::kVsqPop);
    r.aux = (u64{1} << 40) + i;  // payloads keep all 64 bits
    r.status = 0x4004;
    r.tag_lo = 0x0102;
    r.opcode = 2;
    r.hook = 1;
    ring.records.push_back(r);
  }
  d.rings.push_back(ring);
  FlightDump::RingDump marks;
  marks.vm_id = 0;
  marks.queue = kFlightMarksQueue;
  marks.capacity = 4;
  marks.total = 1;
  FlightRecord m = Rec(999, 0, SpanKind::kTriggerFired);
  m.aux = static_cast<u64>(FlightTrigger::kDeadlineAbort);
  marks.records.push_back(m);
  d.rings.push_back(marks);
  return d;
}

TEST(FlightDumpTest, SerializeParseRoundTripBitExact) {
  FlightDump d = MakeDump();
  std::string text = d.Serialize();
  FlightDump back;
  std::string error;
  ASSERT_TRUE(FlightDump::Parse(text, &back, &error)) << error;
  EXPECT_EQ(back.version, d.version);
  EXPECT_EQ(back.trigger, d.trigger);
  EXPECT_EQ(back.t, d.t);
  EXPECT_EQ(back.seq, d.seq);
  EXPECT_EQ(back.detail, d.detail);
  EXPECT_EQ(back.metrics_text, d.metrics_text);
  EXPECT_EQ(back.timeseries_csv, d.timeseries_csv);
  ASSERT_EQ(back.rings.size(), d.rings.size());
  for (usize i = 0; i < d.rings.size(); i++) {
    EXPECT_EQ(back.rings[i].vm_id, d.rings[i].vm_id);
    EXPECT_EQ(back.rings[i].queue, d.rings[i].queue);
    EXPECT_EQ(back.rings[i].capacity, d.rings[i].capacity);
    EXPECT_EQ(back.rings[i].total, d.rings[i].total);
    EXPECT_EQ(back.rings[i].dropped_frozen, d.rings[i].dropped_frozen);
    ASSERT_EQ(back.rings[i].records.size(), d.rings[i].records.size());
    for (usize j = 0; j < d.rings[i].records.size(); j++) {
      EXPECT_EQ(std::memcmp(&back.rings[i].records[j], &d.rings[i].records[j],
                            sizeof(FlightRecord)),
                0);
    }
  }
  // Second generation serializes to the identical text: the dump format
  // has one canonical rendering.
  EXPECT_EQ(back.Serialize(), text);
}

TEST(FlightDumpTest, ParseRejectsGarbage) {
  FlightDump out;
  std::string error;
  EXPECT_FALSE(FlightDump::Parse("", &out, &error));
  EXPECT_FALSE(FlightDump::Parse("NOTFLIGHT 1\n", &out, &error));
  EXPECT_FALSE(FlightDump::Parse("NVMFLIGHT 99\n", &out, &error));
  // Truncation anywhere (even mid-record) is an error, not a short read.
  std::string text = MakeDump().Serialize();
  for (usize cut : {text.size() / 4, text.size() / 2, text.size() - 2}) {
    EXPECT_FALSE(FlightDump::Parse(text.substr(0, cut), &out, &error))
        << "cut at " << cut;
  }
}

// --- FlightTimeline truncation ----------------------------------------------

TEST(FlightTimelineTest, HeadEvictedRequestsAreCountedNotAttributed) {
  // Queue 0's ring kept only the tail of request 1 and nothing of
  // request 2; queue 1's ring kept request 3 whole. Truncation is decided
  // per request: 1 and 2 are counted, 3 and 4 are attributed.
  FlightDump d;
  FlightDump::RingDump q0;
  q0.vm_id = 1;
  q0.queue = 0;
  q0.records = {Rec(20, 1, SpanKind::kHcqComplete),
                Rec(30, 1, SpanKind::kVcqPost), Rec(40, 4, SpanKind::kVsqPop),
                Rec(50, 4, SpanKind::kVcqPost)};
  FlightDump::RingDump q1;
  q1.vm_id = 1;
  q1.queue = 1;
  q1.records = {Rec(0, 3, SpanKind::kVsqPop),
                Rec(5, 3, SpanKind::kDispatchFast),
                Rec(25, 3, SpanKind::kVcqPost)};
  d.rings = {q0, q1};

  FlightTimeline tl(d);
  std::string error;
  ASSERT_TRUE(tl.Validate(&error)) << error;
  EXPECT_EQ(tl.truncated_requests(), 2u);
  EXPECT_EQ(tl.Find(1), nullptr);  // head evicted
  EXPECT_EQ(tl.Find(2), nullptr);  // nothing retained
  ASSERT_EQ(tl.requests().size(), 2u);
  const FlightRequestView* v = tl.Find(3);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->attributable());
  EXPECT_EQ(v->queue, 1u);
  EXPECT_EQ(v->path, PathClass::kFast);
  EXPECT_EQ(v->e2e_ns, 25u);
  EXPECT_EQ(v->StageSum(), v->e2e_ns);
  ASSERT_NE(tl.Find(4), nullptr);
  EXPECT_TRUE(tl.Find(4)->attributable());
}

// --- FlightTriggers ----------------------------------------------------------

struct TriggerHarness {
  FlightRecorder rec{64};
  MetricsRegistry metrics;
  std::unique_ptr<FlightTriggers> triggers;

  explicit TriggerHarness(FlightTriggersConfig cfg = {}) {
    rec.RegisterRing(1, 0)->Stamp(10, 1, SpanKind::kVsqPop);
    metrics.GetCounter("router.requests")->Inc(17);
    triggers = std::make_unique<FlightTriggers>(&rec, &metrics, nullptr, cfg);
  }
};

TEST(FlightTriggersTest, ManualDumpSnapshotsEverything) {
  TriggerHarness h;
  ASSERT_TRUE(h.triggers->RequestDump(1000, "operator request"));
  EXPECT_EQ(h.triggers->dumps_produced(), 1u);

  FlightDump d;
  std::string error;
  ASSERT_TRUE(FlightDump::Parse(h.triggers->last_dump_text(), &d, &error))
      << error;
  EXPECT_EQ(d.trigger, FlightTrigger::kManual);
  EXPECT_EQ(d.t, 1000u);
  EXPECT_EQ(d.detail, "operator request");
  EXPECT_NE(d.metrics_text.find("router_requests_total 17"),
            std::string::npos);
  ASSERT_EQ(d.rings.size(), 2u);  // data ring + marks ring
  EXPECT_EQ(d.rings[1].queue, kFlightMarksQueue);

  // The recorder is live again and carries the TRIGGER_FIRED mark (it
  // lands after the snapshot so the *next* dump shows this one).
  EXPECT_FALSE(h.rec.frozen());
  std::vector<FlightRecord> marks = h.rec.marks().Records();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0].kind, SpanKind::kTriggerFired);
  EXPECT_EQ(marks[0].aux, static_cast<u64>(FlightTrigger::kManual));
}

TEST(FlightTriggersTest, CooldownSuppressesAnomaliesButNotManual) {
  TriggerHarness h(FlightTriggersConfig{.cooldown_ns = 1'000'000});
  EXPECT_TRUE(h.triggers->Fire(FlightTrigger::kSloBreach, 1000, "a"));
  EXPECT_FALSE(h.triggers->Fire(FlightTrigger::kDeadlineAbort, 2000, "b"));
  EXPECT_EQ(h.triggers->fires_suppressed(), 1u);
  EXPECT_TRUE(h.triggers->RequestDump(3000, "manual bypasses cooldown"));
  // Past the cooldown the anomaly path dumps again.
  EXPECT_TRUE(
      h.triggers->Fire(FlightTrigger::kDeadlineAbort, 3000 + 1'000'000, "c"));
  EXPECT_EQ(h.triggers->dumps_produced(), 3u);
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kSloBreach), 1u);
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kDeadlineAbort), 2u);
}

TEST(FlightTriggersTest, MaxDumpsCapsTheRun) {
  TriggerHarness h(FlightTriggersConfig{.cooldown_ns = 0, .max_dumps = 2});
  EXPECT_TRUE(h.triggers->RequestDump(1, "a"));
  EXPECT_TRUE(h.triggers->RequestDump(2, "b"));
  EXPECT_FALSE(h.triggers->RequestDump(3, "c"));
  EXPECT_EQ(h.triggers->dumps_produced(), 2u);
  EXPECT_EQ(h.triggers->fires_suppressed(), 1u);
}

TEST(FlightTriggersTest, DisarmedSourceIsCountedButNeverDumps) {
  TriggerHarness h;
  h.triggers->Arm(FlightTrigger::kSloBreach, false);
  EXPECT_FALSE(h.triggers->armed(FlightTrigger::kSloBreach));
  EXPECT_FALSE(h.triggers->Fire(FlightTrigger::kSloBreach, 1000, "x"));
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kSloBreach), 1u);
  EXPECT_EQ(h.triggers->dumps_produced(), 0u);
}

TEST(FlightTriggersTest, LazyMetricsKeepTriggerFreeExportsIdentical) {
  // A wired-but-silent trigger framework must not perturb the metrics
  // export: flight.* counters appear only once a fire is accepted.
  MetricsRegistry plain;
  plain.GetCounter("router.requests")->Inc(17);
  TriggerHarness h;
  EXPECT_EQ(ExportPrometheusText(h.metrics), ExportPrometheusText(plain));
  ASSERT_TRUE(h.triggers->RequestDump(1, "now they may register"));
  EXPECT_NE(ExportPrometheusText(h.metrics).find("flight_dumps_total"),
            std::string::npos);
}

TEST(FlightTriggersTest, WritesDumpFileToDir) {
  FlightTriggersConfig cfg;
  cfg.dump_dir = ::testing::TempDir();
  cfg.dump_prefix = "flighttest";
  TriggerHarness h(cfg);
  ASSERT_TRUE(h.triggers->Fire(FlightTrigger::kQosShedStorm, 77, "d"));
  const FlightTriggers::DumpInfo& info = h.triggers->dumps()[0];
  ASSERT_FALSE(info.path.empty());
  EXPECT_NE(info.path.find("flighttest-0-qos_shed_storm.flight"),
            std::string::npos);
  std::FILE* f = std::fopen(info.path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string data;
  char buf[4096];
  usize n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  std::remove(info.path.c_str());
  EXPECT_EQ(data, info.serialized);
}

TEST(FlightTriggersTest, SloBreachHookFires) {
  TriggerHarness h;
  SloWatchdog slo(&h.metrics, &h.rec, {.interval_ns = 1'000'000});
  slo.AddErrorRateTarget("writes", "router.failed", "router.requests", 0.0);
  h.triggers->ArmSlo(&slo);
  h.metrics.GetCounter("router.failed")->Inc();
  h.metrics.GetCounter("router.requests")->Inc();
  slo.EvaluateWindow(1'000'000);
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kSloBreach), 1u);
  EXPECT_EQ(h.triggers->dumps_produced(), 1u);
  FlightDump d;
  std::string error;
  ASSERT_TRUE(FlightDump::Parse(h.triggers->last_dump_text(), &d, &error));
  EXPECT_EQ(d.trigger, FlightTrigger::kSloBreach);
  EXPECT_NE(d.detail.find("writes"), std::string::npos);
}

TEST(FlightTriggersTest, OverloadEscalationFires) {
  TriggerHarness h;
  overload::OverloadConfig cfg;
  overload::OverloadController ctl(cfg, nullptr);
  ctl.ArmFlightTriggers(h.triggers.get());
  // A huge standing backlog: the delay signal jumps straight past the
  // shed threshold, one Normal -> Shed upgrade.
  ctl.NoteBacklog(static_cast<i64>(cfg.device_tokens_per_sec) * 10);
  ctl.Evaluate(1'000'000);
  EXPECT_EQ(ctl.state(), overload::State::kShed);
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kOverloadEscalation), 1u);
  EXPECT_EQ(h.triggers->dumps_produced(), 1u);
}

TEST(FlightTriggersTest, QosShedStormFiresAfterBurstOnly) {
  TriggerHarness h(FlightTriggersConfig{.cooldown_ns = 0});
  qos::QosScheduler sched(qos::QosConfig{}, nullptr);
  ASSERT_TRUE(sched
                  .RegisterTenant({.tenant_id = 7,
                                   .cls = qos::TenantClass::kBestEffort})
                  .ok());
  sched.ArmFlightTriggers(h.triggers.get(), /*shed_burst=*/3);
  sched.NoteShed(7);
  sched.NoteShed(7);
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kQosShedStorm), 0u);
  // An admission breaks the run; the storm counter restarts.
  ASSERT_EQ(sched.Admit(7, 1, 1'000'000).action,
            qos::AdmitResult::Action::kAdmit);
  EXPECT_EQ(sched.consecutive_sheds(), 0u);
  sched.NoteShed(7);
  sched.NoteShed(7);
  sched.NoteShed(7);
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kQosShedStorm), 1u);
  // The burst fires once, not once per further shed.
  sched.NoteShed(7);
  EXPECT_EQ(h.triggers->fires(FlightTrigger::kQosShedStorm), 1u);
  EXPECT_EQ(h.triggers->dumps_produced(), 1u);
}

}  // namespace
}  // namespace nvmetro::obs

// --- Through the real router -------------------------------------------------

namespace nvmetro::core {
namespace {

using nvme::NvmeStatus;

/// Echoes success synchronously (notify-path UIF stand-in).
struct EchoUif : uif::UifBase {
  bool work(const nvme::Sqe&, u32, u16& status) override {
    status = nvme::kStatusSuccess;
    return false;
  }
};

struct FlightRouterFixture : ::testing::Test {
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<obs::FlightTriggers> triggers;
  sim::Simulator sim;
  mem::IommuSpace dma{nullptr, 1ull << 40};
  std::unique_ptr<ssd::SimulatedController> phys;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<virt::Vm> vm;
  std::unique_ptr<NvmetroHost> host;
  VirtualController* vc = nullptr;
  std::unique_ptr<virt::GuestNvmeDriver> driver;

  struct BuildOpts {
    const char* classifier_asm = nullptr;  // null: passthrough
    bool with_triggers = true;
    bool with_fault_injector = false;
    SimTime request_timeout_ns = 0;
    std::string dump_dir{};  // "": dumps stay in memory
    u16 queues = 1;
    u64 drive_capacity = 64 * MiB;
    u64 part_first_lba = 0;  // VM partition
    u64 part_nlb = 0;        // 0 = the whole namespace
  };

  void Build() { Build(BuildOpts{}); }
  void Build(BuildOpts o) {
    obs = std::make_unique<obs::Observability>();
    ssd::ControllerConfig cfg;
    cfg.capacity = o.drive_capacity;
    cfg.obs = obs.get();
    phys = std::make_unique<ssd::SimulatedController>(&sim, &dma, cfg);
    if (o.with_fault_injector) {
      injector = std::make_unique<fault::FaultInjector>(&sim, obs.get());
      phys->SetFaultInjector(injector.get());
    }
    vm = std::make_unique<virt::Vm>(&sim,
                                    virt::VmConfig{.memory_bytes = 32 * MiB});
    NvmetroHost::Config hcfg;
    hcfg.obs = obs.get();
    hcfg.costs.request_timeout_ns = o.request_timeout_ns;
    if (o.with_triggers) {
      triggers = std::make_unique<obs::FlightTriggers>(
          &obs->flight(), &obs->metrics(), nullptr,
          obs::FlightTriggersConfig{
              .dump_dir = o.dump_dir, .cooldown_ns = 0, .max_dumps = 16});
      hcfg.flight_triggers = triggers.get();
    }
    host = std::make_unique<NvmetroHost>(&sim, phys.get(), hcfg);
    vc = host->CreateController(vm.get(),
                                {.vm_id = 1,
                                 .part_first_lba = o.part_first_lba,
                                 .part_nlb = o.part_nlb});
    auto prog = o.classifier_asm ? ebpf::Assemble(o.classifier_asm)
                                 : functions::PassthroughClassifier();
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(vc->InstallClassifier(std::move(*prog)).ok());
    host->Start();
    driver = std::make_unique<virt::GuestNvmeDriver>(vm.get(), vc);
    ASSERT_TRUE(driver->Init(o.queues).ok());
  }

  NvmeStatus RunOne(bool write, u64 lba, u16 queue = 0) {
    u64 buf = *vm->memory().AllocPages(1);
    nvme::Sqe s = write ? nvme::MakeWrite(1, lba, 1, buf, 0)
                        : nvme::MakeRead(1, lba, 1, buf, 0);
    NvmeStatus status = 0xFFF;
    driver->Submit(queue, s, [&](NvmeStatus st, u32) { status = st; });
    sim.Run();
    return status;
  }

  /// Records of the (vm 1, queue 0) flight ring.
  std::vector<obs::FlightRecord> Ring0() {
    obs::FlightRing* r = obs->flight().Find(1, 0);
    return r ? r->Records() : std::vector<obs::FlightRecord>{};
  }

  bool HasEdge(const std::vector<obs::FlightRecord>& recs, obs::SpanKind k) {
    for (const obs::FlightRecord& r : recs) {
      if (r.kind == k) return true;
    }
    return false;
  }
};

TEST_F(FlightRouterFixture, FastPathLifecycleEdgesRecorded) {
  Build();
  ASSERT_EQ(RunOne(false, 0), nvme::kStatusSuccess);
  std::vector<obs::FlightRecord> recs = Ring0();
  ASSERT_FALSE(recs.empty());
  for (obs::SpanKind k :
       {obs::SpanKind::kVsqPop, obs::SpanKind::kClassifier,
        obs::SpanKind::kDispatchFast, obs::SpanKind::kHcqComplete,
        obs::SpanKind::kVcqPost, obs::SpanKind::kIrqInject}) {
    EXPECT_TRUE(HasEdge(recs, k)) << obs::SpanKindName(k);
  }
  for (const obs::FlightRecord& r : recs) EXPECT_EQ(r.req_id, 1u);
  EXPECT_EQ(recs[0].kind, obs::SpanKind::kVsqPop);
  EXPECT_EQ(recs[0].aux, nvme::kCmdRead);  // VSQ_POP carries the opcode
}

TEST_F(FlightRouterFixture, NotifyPathRecordsUifEdges) {
  static constexpr char kAllToUif[] =
      "  mov r0, 0x240000\n"  // SEND_NQ | WILL_COMPLETE_NQ
      "  exit\n";
  Build({.classifier_asm = kAllToUif});
  NotifyChannel channel;
  uif::UifHostParams params;
  params.obs = obs.get();
  uif::UifHost uif_host(&sim, "echo", params);
  EchoUif echo;
  vc->AttachUif(&channel);
  uif_host.AddFunction(&channel, vm.get(), &echo);
  uif_host.Start();

  ASSERT_EQ(RunOne(true, 0), nvme::kStatusSuccess);
  std::vector<obs::FlightRecord> recs = Ring0();
  EXPECT_TRUE(HasEdge(recs, obs::SpanKind::kUifWork));
  EXPECT_TRUE(HasEdge(recs, obs::SpanKind::kUifRespond));
  // The UIF edges land in the request's arrival ring with its tag.
  for (const obs::FlightRecord& r : recs) {
    EXPECT_EQ(r.req_id, 1u);
    if (r.kind == obs::SpanKind::kUifWork ||
        r.kind == obs::SpanKind::kUifRespond) {
      EXPECT_EQ(r.tag_lo, recs[0].tag_lo);
    }
  }
}

TEST_F(FlightRouterFixture, DumpTimelineAttributesEveryRequest) {
  Build({.queues = 2});
  for (int i = 0; i < 40; i++) {
    ASSERT_EQ(RunOne(i % 2, i % 64, static_cast<u16>(i % 2)),
              nvme::kStatusSuccess);
  }
  ASSERT_TRUE(triggers->RequestDump(sim.now(), "timeline"));

  obs::FlightDump dump;
  std::string error;
  ASSERT_TRUE(
      obs::FlightDump::Parse(triggers->last_dump_text(), &dump, &error))
      << error;
  obs::FlightTimeline timeline(dump);
  ASSERT_TRUE(timeline.Validate(&error)) << error;
  EXPECT_EQ(timeline.truncated_requests(), 0u);
  ASSERT_EQ(timeline.requests().size(), 40u);
  for (const obs::FlightRequestView& v : timeline.requests()) {
    EXPECT_TRUE(v.attributable()) << "req " << v.req_id;
    EXPECT_EQ(v.queue, (v.req_id - 1) % 2) << "req " << v.req_id;
    EXPECT_EQ(v.path, obs::PathClass::kFast);
  }

  // Slowest/Failed listings stay inside the attributable set.
  std::vector<const obs::FlightRequestView*> slow = timeline.Slowest(5);
  ASSERT_EQ(slow.size(), 5u);
  for (usize i = 1; i < slow.size(); i++) {
    EXPECT_GE(slow[i - 1]->e2e_ns, slow[i]->e2e_ns);
  }
  EXPECT_TRUE(timeline.Failed().empty());
}

TEST_F(FlightRouterFixture, SlbaAbove32BitsSurvivesDumpAndInspect) {
  // A partition at LBA 2^32 on a sparse 4 TiB drive: the mediated slba
  // every dispatch edge carries needs all 64 bits of aux.
  constexpr u64 kPartStart = u64{1} << 32;
  Build({.drive_capacity = u64{4} << 40,
         .part_first_lba = kPartStart,
         .part_nlb = 2048});
  ASSERT_EQ(RunOne(true, 7), nvme::kStatusSuccess);
  ASSERT_TRUE(triggers->RequestDump(sim.now(), "wide slba"));

  obs::FlightDump dump;
  std::string error;
  ASSERT_TRUE(
      obs::FlightDump::Parse(triggers->last_dump_text(), &dump, &error))
      << error;
  obs::FlightTimeline timeline(dump);
  const obs::FlightRequestView* v = timeline.Find(1);
  ASSERT_NE(v, nullptr);
  const obs::FlightRecord* dispatch = nullptr;
  for (const obs::FlightRecord& r : v->records) {
    if (r.kind == obs::SpanKind::kDispatchFast) dispatch = &r;
  }
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->aux, kPartStart + 7);
  // flight_inspect prints records with TraceRecorder::FormatEvent.
  std::string line = obs::TraceRecorder::FormatEvent(*dispatch, v->vm_id);
  EXPECT_NE(line.find("aux=" + std::to_string(kPartStart + 7)),
            std::string::npos)
      << line;
}

TEST_F(FlightRouterFixture, DeadlineAbortTriggersForensicDump) {
  // The dump also goes to a file in the working directory: the
  // flight_dump_inspect ctest runs this case in an empty directory and
  // reads the file back with flight_inspect, as an operator would.
  Build({.with_fault_injector = true,
         .request_timeout_ns = 400 * kUs,
         .dump_dir = "."});
  // A completed IO ahead of the stall gives the dump a request whose
  // stage sums Validate checks against its e2e latency.
  ASSERT_EQ(RunOne(true, 2), nvme::kStatusSuccess);
  fault::FaultPlan plan;
  plan.faults.push_back(
      {.kind = fault::FaultKind::kCommandStall, .count = 1});
  injector->Arm(plan);

  // The next IO stalls at the device and aborts at the deadline; later
  // IOs complete normally around it.
  NvmeStatus st = RunOne(false, 0);
  EXPECT_NE(st, nvme::kStatusSuccess);
  ASSERT_EQ(RunOne(true, 1), nvme::kStatusSuccess);

  EXPECT_EQ(triggers->fires(obs::FlightTrigger::kDeadlineAbort), 1u);
  ASSERT_GE(triggers->dumps_produced(), 1u);
  const obs::FlightTriggers::DumpInfo& info = triggers->dumps()[0];
  EXPECT_EQ(info.trigger, obs::FlightTrigger::kDeadlineAbort);
  EXPECT_NE(info.detail.find("vm=1"), std::string::npos);
  EXPECT_FALSE(info.path.empty()) << "the dump file was not written";

  obs::FlightDump dump;
  std::string error;
  ASSERT_TRUE(obs::FlightDump::Parse(info.serialized, &dump, &error)) << error;
  obs::FlightTimeline timeline(dump);
  ASSERT_TRUE(timeline.Validate(&error)) << error;
  const obs::FlightRequestView* done = timeline.Find(1);
  ASSERT_NE(done, nullptr);
  EXPECT_TRUE(done->attributable());
  const obs::FlightRequestView* v = timeline.Find(2);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->timed_out);
  std::vector<const obs::FlightRequestView*> failed = timeline.Failed();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->req_id, 2u);
}

TEST_F(FlightRouterFixture, FaultWindowMarksBracketTheAnomaly) {
  Build({.with_fault_injector = true});
  fault::FaultPlan plan;
  plan.faults.push_back({.kind = fault::FaultKind::kLinkDown,
                         .at_ns = 100 * kUs,
                         .duration_ns = 200 * kUs});
  injector->Arm(plan);
  sim.ScheduleAfter(400 * kUs, [] {});
  sim.Run();

  std::vector<obs::FlightRecord> marks = obs->flight().marks().Records();
  ASSERT_EQ(marks.size(), 2u);
  u64 kind_bits = static_cast<u64>(fault::FaultKind::kLinkDown) << 1;
  EXPECT_EQ(marks[0].kind, obs::SpanKind::kFaultWindow);
  EXPECT_EQ(marks[0].aux, kind_bits | 1u);  // open
  EXPECT_EQ(marks[0].t, 100 * kUs);
  EXPECT_EQ(marks[1].aux, kind_bits);  // close
  EXPECT_EQ(marks[1].t, 300 * kUs);
}

TEST_F(FlightRouterFixture, SteadyStateRecordingDoesNotAllocate) {
  Build();
  u64 buf = *vm->memory().AllocPages(1);
  int completed = 0, issued = 0, target = 0;
  std::function<void()> issue = [&] {
    if (issued >= target) return;
    issued++;
    nvme::Sqe sqe = (issued % 2) ? nvme::MakeWrite(1, issued % 64, 1, buf, 0)
                                 : nvme::MakeRead(1, issued % 64, 1, buf, 0);
    driver->Submit(0, sqe, [&](NvmeStatus, u32) {
      completed++;
      issue();
    });
  };
  target = 300;  // warmup: pools + rings reach their working set
  for (int d = 0; d < 8; d++) issue();
  sim.Run();
  mem::HotPathAllocs::BeginSteadyState();
  target = 900;
  for (int d = 0; d < 8; d++) issue();
  sim.Run();
  mem::HotPathAllocs::EndSteadyState();
  EXPECT_EQ(completed, 900);
  EXPECT_EQ(mem::HotPathAllocs::steady_state_allocs(), 0u);
  EXPECT_GT(obs->flight().total_records(), 0u);
}

// --- Resubmit depth breach (pushdown classifier) -----------------------------

struct FlightResubmitFixture : FlightRouterFixture {
  u64 buf_pages = 0;
  nvme::PrpChain chain;

  void BuildPushdown() {
    Build({.classifier_asm = functions::PushdownLookupClassifierAsm()});
    mem::GuestMemory& gm = vm->memory();
    buf_pages = *gm.AllocPages(2);
    chain = *nvme::BuildPrps(gm, buf_pages, kv::kPushdownBlockBytes);
  }

  NvmeStatus BlockIo(u8 opcode, u64 lba, u64 key_arg, u8* data) {
    mem::GuestMemory& gm = vm->memory();
    if (opcode == nvme::kCmdWrite) {
      (void)nvme::PrpWrite(gm, chain.prp1, chain.prp2,
                           kv::kPushdownBlockBytes, data);
    }
    nvme::Sqe sqe;
    sqe.opcode = opcode;
    sqe.nsid = 1;
    sqe.prp1 = chain.prp1;
    sqe.prp2 = chain.prp2;
    sqe.cdw2 = static_cast<u32>(key_arg);
    sqe.cdw3 = static_cast<u32>(key_arg >> 32);
    sqe.set_slba(lba);
    sqe.set_nlb0(kv::kPushdownLbasPerBlock - 1);
    NvmeStatus status = 0xFFF;
    driver->Submit(0, sqe, [&](NvmeStatus st, u32) { status = st; });
    sim.Run();
    return status;
  }
};

TEST_F(FlightResubmitFixture, DepthBoundBreachTriggersDump) {
  BuildPushdown();
  // Self-referential "internal" block: every child pointer is its own
  // LBA, so the chain runs straight into max_resubmit_depth.
  std::vector<u8> block(kv::kPushdownBlockBytes, 0);
  u64 word0 = (static_cast<u64>(kv::kPushdownMagic) << 32) | 1;
  u64 nkeys = kv::kPushdownFanout;
  memcpy(block.data(), &word0, 8);
  memcpy(block.data() + 8, &nkeys, 8);
  for (u32 i = 0; i < kv::kPushdownFanout; i++) {
    u64 key = i;
    u64 child_lba = 0;
    memcpy(block.data() + kv::kPushdownHeaderBytes + i * 16, &key, 8);
    memcpy(block.data() + kv::kPushdownHeaderBytes + i * 16 + 8, &child_lba,
           8);
  }
  ASSERT_EQ(BlockIo(nvme::kCmdWrite, 0, 0, block.data()),
            nvme::kStatusSuccess);

  std::vector<u8> page(kv::kPushdownBlockBytes);
  NvmeStatus st = BlockIo(nvme::kCmdRead, 0, 5, page.data());
  EXPECT_NE(st, nvme::kStatusSuccess);

  EXPECT_EQ(triggers->fires(obs::FlightTrigger::kResubmitDepthBreach), 1u);
  ASSERT_GE(triggers->dumps_produced(), 1u);
  const obs::FlightTriggers::DumpInfo& info = triggers->dumps()[0];
  EXPECT_EQ(info.trigger, obs::FlightTrigger::kResubmitDepthBreach);
  EXPECT_NE(info.detail.find("depth="), std::string::npos);

  // The dump's ring carries the whole runaway chain: RESUBMIT edges up
  // to the bound, all on one request.
  obs::FlightDump dump;
  std::string error;
  ASSERT_TRUE(obs::FlightDump::Parse(info.serialized, &dump, &error)) << error;
  obs::FlightTimeline timeline(dump);
  ASSERT_TRUE(timeline.Validate(&error)) << error;
  const obs::FlightRequestView* v = timeline.Find(2);  // write was req 1
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->resubmits, 8u);  // exactly max_resubmit_depth
}

}  // namespace
}  // namespace nvmetro::core
