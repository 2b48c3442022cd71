// Always-on flight recorder (DESIGN.md §16): the router's black box and
// the store of the one lifecycle event stream (obs/trace.h).
//
// Every lifecycle edge is one packed 32-byte FlightRecord, written once
// into its arrival queue's fixed-capacity FlightRing with zero
// steady-state allocations and zero simulated-CPU charge. Request-less
// annotations (SLO breaches, overload transitions, fault windows, trigger
// fires, stale-cid drops) go to one marks ring. TraceRecorder reads the
// rings back; SpanAnalyzer, the Perfetto exporter and FlightTimeline all
// fold them with one function (FoldRequest, obs/span.h).
//
// A trigger framework (FlightTriggers) freezes every ring together and
// serializes a self-contained forensic dump — rings + a MetricsRegistry
// snapshot + an optional TimeSeries tail — when something goes wrong:
//
//   - an SLO breach (SloWatchdog breach hook),
//   - an overload state escalation (OverloadController wiring),
//   - a fault-recovery deadline abort (router OnDeadline),
//   - a stale-cid drop (late completion failed the generation check),
//   - a resubmit depth-bound breach (runaway classifier chain),
//   - a QoS shed storm (consecutive sheds past a burst threshold), or
//   - an explicit SIGUSR1-style programmatic RequestDump().
//
// Dumps round-trip through FlightDump::Serialize/Parse and are inspected
// postmortem with tools/flight_inspect, which rebuilds per-request
// timelines with FlightTimeline.
//
// Leaf-library constraint (see CMakeLists.txt): nothing here may touch
// the simulator. Timestamps are passed in by the recording components
// and trigger sources; file IO happens only on the cold dump path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace nvmetro::obs {

class SloWatchdog;

/// Queue index used by the recorder's process-wide marks ring.
constexpr u32 kFlightMarksQueue = 0xFFFFFFFFu;

/// Fixed-capacity ring of FlightRecords for one guest queue (shard).
/// Stamp() is the always-on hot path: one branch and one 32-byte store,
/// no allocation, no simulated-CPU charge.
class FlightRing {
 public:
  /// `capacity` is rounded up to a power of two and allocated up front
  /// (attach time, never on the IO path).
  FlightRing(u32 vm_id, u32 queue, usize capacity);
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Builds one record in place: the single write path of every edge.
  void Stamp(SimTime t, u64 req_id, SpanKind kind, u64 aux = 0,
             u16 status = 0, u32 tag = 0, u8 opcode = 0, u8 hook = 0) {
    if (frozen_) {
      dropped_frozen_++;
      return;
    }
    FlightRecord& r = buf_[total_ & mask_];
    r.t = t;
    r.req_id = req_id;
    r.aux = aux;
    r.status = status;
    r.tag_lo = static_cast<u16>(tag);
    r.kind = kind;
    r.opcode = opcode;
    r.hook = hook;
    total_++;
  }

  u32 vm_id() const { return vm_id_; }
  u32 queue() const { return queue_; }
  usize capacity() const { return buf_.size(); }
  /// Records ever written (including overwritten ones).
  u64 total() const { return total_; }
  /// Records currently retained (<= capacity).
  usize held() const {
    return total_ < buf_.size() ? static_cast<usize>(total_) : buf_.size();
  }
  /// Records dropped because the ring was frozen for a dump.
  u64 dropped_frozen() const { return dropped_frozen_; }
  bool frozen() const { return frozen_; }
  void set_frozen(bool on) { frozen_ = on; }
  /// Forgets every record and count (capacity is kept).
  void Clear() {
    total_ = 0;
    dropped_frozen_ = 0;
  }

  /// Calls `fn` on each retained record, oldest first (cold path).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (u64 i = total_ - held(); i < total_; i++) fn(buf_[i & mask_]);
  }
  /// Chronological copy, oldest retained record first (cold path).
  std::vector<FlightRecord> Records() const;

 private:
  u32 vm_id_;
  u32 queue_;
  std::vector<FlightRecord> buf_;
  u64 mask_;
  u64 total_ = 0;
  u64 dropped_frozen_ = 0;
  bool frozen_ = false;
};

/// Owns one FlightRing per registered guest queue plus the marks ring,
/// each `ring_capacity` records. Registration happens at queue-attach
/// time; the steady-state surface is FlightRing::Stamp through the
/// pointer each shard caches.
class FlightRecorder {
 public:
  explicit FlightRecorder(usize ring_capacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Allocates (or returns the existing) ring for a guest queue. Called
  /// at AttachQueuePair time — never on the IO path.
  FlightRing* RegisterRing(u32 vm_id, u32 queue);
  /// Ring lookup for off-router recorders (UIF framework); null when the
  /// queue was never registered.
  FlightRing* Find(u32 vm_id, u32 queue);

  /// Stamps a req_id-0 annotation into the marks ring.
  void Mark(SimTime t, SpanKind kind, u64 aux, u16 status = 0) {
    marks_.Stamp(t, 0, kind, aux, status);
  }

  /// Freeze/unfreeze every ring together (trigger snapshot window).
  /// Records arriving while frozen are dropped and counted per ring.
  void Freeze();
  void Unfreeze();
  bool frozen() const { return frozen_; }
  /// Clears every ring (registrations and capacities are kept).
  void Clear();

  u64 total_records() const;
  u64 dropped_while_frozen() const;
  const std::vector<std::unique_ptr<FlightRing>>& rings() const {
    return rings_;
  }
  const FlightRing& marks() const { return marks_; }

 private:
  usize ring_capacity_;
  std::vector<std::unique_ptr<FlightRing>> rings_;
  FlightRing marks_;
  bool frozen_ = false;
};

// --- Triggers --------------------------------------------------------------

enum class FlightTrigger : u8 {
  kManual = 0,           // explicit RequestDump (SIGUSR1-style)
  kSloBreach,            // SloWatchdog breach hook
  kOverloadEscalation,   // OverloadController state upgrade
  kDeadlineAbort,        // router request deadline fired
  kStaleCidDrop,         // late completion failed the generation check
  kResubmitDepthBreach,  // classifier chain hit max_resubmit_depth
  kQosShedStorm,         // consecutive QoS sheds past the burst threshold
  kCount,
};
constexpr usize kFlightTriggerCount = static_cast<usize>(FlightTrigger::kCount);

const char* FlightTriggerName(FlightTrigger t);

/// Parse by name ("deadline_abort"); false on unknown names.
bool FlightTriggerFromName(const std::string& name, FlightTrigger* out);

/// A parsed (or freshly built) forensic dump: trigger context, a
/// Prometheus-text metrics snapshot, an optional TimeSeries CSV tail,
/// and every ring's retained records. Serialize/Parse round-trip
/// bit-exactly (tests/flight_test.cc).
struct FlightDump {
  u32 version = 2;
  FlightTrigger trigger = FlightTrigger::kManual;
  SimTime t = 0;    // sim time the trigger fired
  u64 seq = 0;      // dump sequence number within the run
  std::string detail;
  std::string metrics_text;    // ExportPrometheusText at dump time ("" = none)
  std::string timeseries_csv;  // TimeSeries::ToCsv at dump time ("" = none)

  struct RingDump {
    u32 vm_id = 0;
    u32 queue = 0;
    u64 capacity = 0;
    u64 total = 0;           // records ever written (eviction detector)
    u64 dropped_frozen = 0;
    std::vector<FlightRecord> records;  // oldest first
  };
  std::vector<RingDump> rings;  // marks ring included (queue == kFlightMarksQueue)

  std::string Serialize() const;
  static bool Parse(const std::string& text, FlightDump* out,
                    std::string* error);
};

struct FlightTriggersConfig {
  /// Directory for dump files; "" keeps dumps in memory only (the
  /// serialized text stays retrievable via dumps()).
  std::string dump_dir{};
  /// File name prefix: <dir>/<prefix>-<seq>-<reason>.flight
  std::string dump_prefix = "flight";
  /// Minimum sim-time spacing between anomaly dumps (manual requests
  /// bypass it) so a breach storm cannot dump itself to death.
  SimTime cooldown_ns = 5'000'000;
  /// Hard cap on dumps per run; later fires are counted but suppressed.
  u32 max_dumps = 4;
};

/// The anomaly->dump framework. Components report anomalies with Fire();
/// an accepted fire freezes every ring, serializes a FlightDump (rings +
/// metrics + time-series), optionally writes it to dump_dir, stamps a
/// TRIGGER_FIRED mark, and unfreezes. Registers "flight.dumps" /
/// "flight.fires_suppressed" counters lazily on the first fire so
/// trigger-free runs keep their metric exports bit-identical.
class FlightTriggers {
 public:
  /// `metrics` and `series` may be null (their snapshot is omitted).
  FlightTriggers(FlightRecorder* recorder, MetricsRegistry* metrics,
                 const TimeSeries* series, FlightTriggersConfig cfg = {});
  FlightTriggers(const FlightTriggers&) = delete;
  FlightTriggers& operator=(const FlightTriggers&) = delete;

  /// Arms or disarms one trigger source (all armed by default).
  void Arm(FlightTrigger t, bool on);
  bool armed(FlightTrigger t) const {
    return armed_[static_cast<usize>(t)];
  }

  /// Reports an anomaly. Returns true when a dump was produced; false
  /// when the source is disarmed, in cooldown, or the dump cap is hit.
  bool Fire(FlightTrigger t, SimTime now, const std::string& detail);

  /// SIGUSR1-style explicit dump: always armed, bypasses the cooldown
  /// (still bounded by max_dumps).
  bool RequestDump(SimTime now, const std::string& detail);

  /// Wires the SLO watchdog's breach hook to Fire(kSloBreach).
  void ArmSlo(SloWatchdog* slo);

  u64 fires(FlightTrigger t) const { return fires_[static_cast<usize>(t)]; }
  u64 dumps_produced() const { return static_cast<u64>(dumps_.size()); }
  u64 fires_suppressed() const { return suppressed_; }

  struct DumpInfo {
    FlightTrigger trigger = FlightTrigger::kManual;
    SimTime t = 0;
    u64 seq = 0;
    std::string detail;
    std::string path;        // "" when dump_dir is empty
    std::string serialized;  // the full dump text
  };
  const std::vector<DumpInfo>& dumps() const { return dumps_; }
  /// Serialized text of the most recent dump ("" before the first).
  const std::string& last_dump_text() const;

 private:
  FlightDump BuildDump(FlightTrigger t, SimTime now,
                       const std::string& detail);

  FlightRecorder* recorder_;
  MetricsRegistry* metrics_;
  const TimeSeries* series_;
  FlightTriggersConfig cfg_;
  bool armed_[kFlightTriggerCount];
  u64 fires_[kFlightTriggerCount] = {};
  u64 suppressed_ = 0;
  u64 next_seq_ = 0;
  SimTime last_dump_t_ = 0;
  bool dumped_once_ = false;
  std::vector<DumpInfo> dumps_;
  Counter* m_dumps_ = nullptr;
  Counter* m_suppressed_ = nullptr;
};

// --- Timeline reconstruction -----------------------------------------------

/// One request rebuilt from the rings whose head VSQ_POP is retained:
/// its records and their FoldRequest attribution.
struct FlightRequestView : RequestBreakdown {
  u32 queue = 0;
  u8 opcode = 0;
  u16 tag_lo = 0;
  std::vector<FlightRecord> records;  // chronological

  /// Nothing of the request was evicted, so a posted one is attributed
  /// end to end.
  bool attributable() const { return posted; }
  bool failed() const { return posted && final_status != 0; }
};

/// Groups ring records into per-request timelines (all of a request's
/// records sit in its arrival queue's ring, in order) and folds each
/// request whose head is retained with FoldRequest. Request ids
/// 1..issued without a retained head are counted as truncated.
class FlightTimeline {
 public:
  /// From a dump: ids up to the highest one retained were issued.
  explicit FlightTimeline(const FlightDump& dump);
  /// From the live rings behind `tr`.
  explicit FlightTimeline(const TraceRecorder& tr);

  /// Requests with a retained head, by ascending id.
  const std::vector<FlightRequestView>& requests() const { return requests_; }
  const FlightRequestView* Find(u64 req_id) const;
  /// Attributable requests by descending e2e latency, at most `n`.
  std::vector<const FlightRequestView*> Slowest(usize n) const;
  /// Posted-with-error, timed-out, or shed requests.
  std::vector<const FlightRequestView*> Failed() const;
  /// req_id-0 records of every ring, by timestamp.
  const std::vector<FlightRecord>& marks() const { return marks_; }
  /// Issued requests whose head was evicted by ring wraparound (excluded
  /// from requests() but counted).
  u64 truncated_requests() const { return truncated_; }

  /// Internal consistency: chronological records per request, and
  /// per-stage sums exactly equal to e2e for every attributable request.
  /// Returns false with a diagnostic on violation.
  bool Validate(std::string* error) const;

 private:
  void Build(const std::vector<FlightDump::RingDump>& rings, u64 issued);

  std::vector<FlightRequestView> requests_;
  std::vector<FlightRecord> marks_;
  u64 truncated_ = 0;
};

}  // namespace nvmetro::obs
