// The NVMetro I/O router (paper §III-C).
//
// Components:
//  - VirtualController: the per-VM virtual NVMe controller. Shadows the
//    guest's VSQ/VCQ rings, runs the attached eBPF classifier at each
//    hook, and routes the 64-byte command block to the fast path (host
//    queues on the physical controller), the kernel path (host block
//    layer), and/or the notify path (NSQ/NCQ to a UIF) — with iterative
//    routing driven by a per-request routing-table entry.
//  - RouterWorker: a host polling thread. Workers are shared between
//    multiple VMs in round-robin fashion; VMs idle longer than a parking
//    threshold stop being polled and their next doorbell pays a trap to
//    wake the path up (§III-C).
//  - NvmetroHost: the control interface — create virtual controllers
//    over a namespace or partition, install/replace classifiers on the
//    fly, attach UIF channels and kernel-path devices.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/classifier.h"
#include "core/notify.h"
#include "core/shard.h"
#include "kblock/bio.h"
#include "mem/guest_memory.h"
#include "nvme/prp.h"
#include "sim/poller.h"
#include "ssd/controller.h"
#include "virt/guest_nvme.h"
#include "virt/vm.h"

namespace nvmetro {
class LatencyHistogram;
namespace obs {
class Counter;
class FlightTriggers;
class Gauge;
class Observability;
enum class SpanKind : u8;
}  // namespace obs
namespace qos {
class QosScheduler;
}  // namespace qos
namespace overload {
class OverloadController;
}  // namespace overload
}  // namespace nvmetro

namespace nvmetro::core {

/// Router cost model (host-side, charged on router worker vCPUs).
struct RouterCosts {
  SimTime vsq_pop_ns = 230;        // shadow-queue pop + routing entry setup
  /// MDev-NVMe comparison mode: fixed in-kernel LBA translation instead
  /// of a classifier invocation.
  SimTime mdev_handle_ns = 210;
  SimTime fast_forward_ns = 160;   // HSQ push + device doorbell
  SimTime hcq_handle_ns = 150;     // host CQE handling
  SimTime notify_push_ns = 170;    // NSQ push + UIF notification
  SimTime ncq_handle_ns = 150;     // NCQ completion handling
  SimTime kernel_submit_ns = 1'900;   // NVMe->bio translation + submit
  SimTime kernel_complete_ns = 800;   // kernel-path completion handling
  SimTime vcq_post_ns = 240;       // VCQ write + interrupt injection
  /// Latency from VCQ post to the guest IRQ firing (posted interrupt).
  SimTime irq_inject_latency_ns = 800;
  /// Guest-side doorbell costs: plain MMIO store while polled, vm-exit
  /// when the VM is parked / the worker sleeps.
  SimTime guest_doorbell_mmio_ns = 90;
  SimTime guest_doorbell_trap_ns = 1'800;
  /// A VM with no activity for this long stops being polled.
  SimTime vm_park_timeout_ns = 200 * kUs;
  /// Worker poller knobs.
  SimTime dispatch_cost_ns = 110;
  /// Router workers always poll adaptively: they spin for this long
  /// after the last event and then block until the next doorbell or
  /// completion edge. This is what keeps NVMetro's CPU near QEMU's at low
  /// load in the paper's Figure 11, while SPDK's always-spinning reactors
  /// top the chart.
  SimTime worker_idle_timeout_ns = 15 * kUs;
  SimTime worker_wakeup_latency_ns = 3 * kUs;
  /// --- Failure recovery (all off by default; DESIGN.md §9) -------------
  /// Per-request deadline after which outstanding legs are aborted and
  /// the guest sees Abort Requested (NVMe command timeout). 0 disables.
  SimTime request_timeout_ns = 0;
  /// CPU charged per timed-out request (abort bookkeeping).
  SimTime timeout_abort_ns = 500;
  /// Retries per request for transient leg failures (fast/kernel paths:
  /// path-related errors, Namespace Not Ready, SQ-full pushes). 0
  /// disables.
  u32 max_retries = 0;
  /// First retry backoff; doubles with each consumed retry.
  SimTime retry_backoff_ns = 10 * kUs;
  /// Declare the UIF dead when notify legs are in flight and the NCQ
  /// makes no progress for this long. 0 disables liveness tracking.
  SimTime uif_liveness_timeout_ns = 0;
  /// On UIF death, re-issue lost notify legs (and route future notify
  /// verdicts) on the kernel path when a device is attached; otherwise
  /// they fail. Off by default: for transforming UIFs (encryption) the
  /// kernel path would bypass the transformation.
  bool uif_failover_to_kernel = false;
  /// --- Batched pipeline (DESIGN.md §10) --------------------------------
  /// Commands drained per poller dispatch on each edge (VSQ submissions
  /// and HCQ/NCQ/KCQ completions). 1 = one command per dispatch (0 reads
  /// as 1); raising it amortizes the per-batch costs below over every
  /// command that shares a doorbell edge.
  u32 max_batch = 1;
  /// Per-batch splits of the per-command costs above. Each knob names
  /// the portion of its parent cost that is really a per-batch expense
  /// (classifier context marshal, doorbell MMIO, interrupt injection);
  /// the remainder stays per command, so a batch of one command charges
  /// exactly the parent figure.
  SimTime vsq_batch_setup_ns = 80;  // of vsq_pop_ns: classifier ctx setup
  SimTime sq_doorbell_ns = 60;      // of fast_forward_ns: HSQ tail MMIO
  SimTime cq_doorbell_ns = 50;      // of hcq_handle_ns: HCQ head MMIO
  SimTime notify_kick_ns = 60;      // of notify_push_ns: NSQ event kick
  SimTime vcq_irq_ns = 90;          // of vcq_post_ns: guest IRQ injection
  /// --- Multi-tenant QoS (DESIGN.md §12) --------------------------------
  /// CPU per admission decision (token-bucket check). Charged only when
  /// a QosScheduler is attached, so QoS-off runs are bit-identical to
  /// the pre-QoS router.
  SimTime qos_admit_ns = 120;
  /// --- Resubmission chains (DESIGN.md §15) -----------------------------
  /// Maximum kResubmit hops per request; the router fails the request
  /// with an internal error when a classifier tries to exceed it. The
  /// guest-visible budget is depth * request_timeout semantics unchanged
  /// (the original deadline covers the whole chain).
  u32 max_resubmit_depth = 8;
  /// CPU per accepted resubmission (SQE rewrite + re-dispatch setup).
  SimTime resubmit_ns = 180;
};

class RouterWorker;

/// Per-VM virtual NVMe controller + routing state.
class VirtualController : public virt::VirtualNvmeBackend {
 public:
  struct Config {
    u32 vm_id = 0;
    u32 backend_nsid = 1;
    /// Partition of the backend namespace this VM sees; part_nlb == 0
    /// means the whole namespace.
    u64 part_first_lba = 0;
    u64 part_nlb = 0;
  };

  VirtualController(sim::Simulator* sim, ssd::SimulatedController* phys,
                    virt::Vm* vm, Config cfg, const RouterCosts* costs,
                    obs::Observability* obs = nullptr);
  ~VirtualController() override;

  // --- Control interface ----------------------------------------------------

  /// Verifies and installs (or hot-swaps) the I/O classifier. In-flight
  /// requests keep their routing state; new hooks run the new program.
  Status InstallClassifier(ebpf::Program prog);

  /// Attaches the UIF notify channel (notify-path target).
  void AttachUif(NotifyChannel* channel);
  void DetachUif();

  /// Attaches the kernel-path block device (may be a dm stack).
  void AttachKernelDevice(kblock::BlockDevice* dev);

  /// MDev-NVMe mode: bypass the classifier and perform the partition LBA
  /// translation directly in the mediation layer, as MDev-NVMe's kernel
  /// module does (paper SIII-C). Used by the MDev baseline.
  void SetFixedTranslationMode(bool on) { fixed_translation_ = on; }

  /// Enables multi-tenant QoS: every popped command asks `qos` for
  /// admission as `tenant_id` before classification. Deferred commands
  /// park in a bounded FIFO (capacity = the tenant's max_deferred) and
  /// resume when tokens accrue; arrivals beyond the bound are shed with
  /// a busy status (DESIGN.md §12). Pass nullptr to detach.
  void AttachQos(qos::QosScheduler* qos, u32 tenant_id);

  /// Layers overload control on the QoS admission gate (requires an
  /// attached QosScheduler; DESIGN.md §13): every admission consults the
  /// controller first — a Shed verdict fails the command with a
  /// retryable busy status, a Defer verdict parks it in the same ring
  /// the QoS scheduler uses, and parked waits/backlog are reported back
  /// as the controller's delay signal. Pass nullptr to detach; detached
  /// runs are bit-identical to the QoS-only router.
  void AttachOverload(overload::OverloadController* ovl);

  /// Wires the flight-recorder trigger framework (obs/flight.h): the
  /// router fires kDeadlineAbort / kStaleCidDrop / kResubmitDepthBreach
  /// anomalies into `ftrig` as they happen. Recording into the flight
  /// rings is independent of this (always on whenever the Observability
  /// context owns a FlightRecorder). Pass nullptr to detach.
  void AttachFlightTriggers(obs::FlightTriggers* ftrig) { ftrig_ = ftrig; }

  // --- virt::VirtualNvmeBackend ----------------------------------------------

  Status AttachQueuePair(u16 qid, nvme::SqRing* sq, nvme::CqRing* cq,
                         u64 sq_gpa, u64 cq_gpa) override;
  SimTime SqDoorbell(u16 qid) override;
  void CqDoorbell(u16 qid) override;
  void SetIrqHandler(u16 qid, std::function<void()> handler) override;
  u64 CapacityBytes() const override;

  // --- Introspection ----------------------------------------------------------

  u32 vm_id() const { return cfg_.vm_id; }
  u64 requests_completed() const { return SumStat(&ShardStats::completed); }
  u64 requests_failed() const { return SumStat(&ShardStats::failed); }
  u64 fast_path_sends() const { return SumStat(&ShardStats::fast_sends); }
  u64 notify_path_sends() const { return SumStat(&ShardStats::notify_sends); }
  u64 kernel_path_sends() const { return SumStat(&ShardStats::kernel_sends); }
  u64 requests_timed_out() const { return SumStat(&ShardStats::timeouts); }
  u64 leg_retries() const { return SumStat(&ShardStats::retries); }
  u64 qos_deferrals() const { return SumStat(&ShardStats::qos_deferred); }
  u64 qos_sheds() const { return SumStat(&ShardStats::qos_shed); }
  u64 resubmissions() const { return SumStat(&ShardStats::resubmits); }
  /// Commands rejected by the overload controller's Shed state (disjoint
  /// from qos_sheds(), which counts deferral-bound sheds).
  u64 overload_sheds() const { return SumStat(&ShardStats::ovl_shed); }
  /// Commands currently parked awaiting QoS admission (all shards).
  u32 qos_waiting() const {
    usize n = 0;
    for (const auto& sh : shards_) n += sh->qos_count;
    return static_cast<u32>(n);
  }
  u64 uif_failovers() const { return uif_failovers_; }
  bool uif_dead() const { return uif_dead_; }
  ClassifierRuntime* classifier() { return classifier_.get(); }
  bool parked() const;
  // Shard-level introspection (DESIGN.md §14): slab/cid occupancy for
  // leak assertions and scratch capacities for reallocation checks.
  u32 num_shards() const { return static_cast<u32>(shards_.size()); }
  const ShardStats& shard_stats(u32 i) const { return shards_[i]->stats; }
  u32 shard_slots_in_use(u32 i) const { return shards_[i]->slots_in_use(); }
  u32 shard_slab_capacity(u32 i) const { return shards_[i]->slab_capacity(); }
  u32 shard_cid_in_use(u32 i) const { return shards_[i]->cid_in_use(); }
  u32 shard_cid_capacity(u32 i) const { return shards_[i]->cid_capacity(); }
  usize shard_irq_scratch_capacity(u32 i) const {
    return shards_[i]->batch_irq_reqs.capacity();
  }
  /// Late host CQEs dropped by the cid generation check (all shards).
  u64 stale_cid_drops() const {
    return SumStat(&ShardStats::stale_cid_drops);
  }

 private:
  friend class RouterWorker;
  friend class NvmetroHost;

  enum Path : u8 { kPathH = 0, kPathN = 1, kPathK = 2 };

  // Per-queue state (slab, cid table, scratch, deferral ring, stats)
  // lives in RouterShard (core/shard.h); the controller keeps only the
  // protocol logic and genuinely shared state (classifier, UIF
  // liveness, kernel mailbox, metrics).

  // Request processing (all on the router worker's vCPU context).
  void PollVsq(usize gq_index);
  void PollHcq();
  void PollNcq();
  void PollKcq();
  /// `batch_n` is the size of the drain batch this command arrived in;
  /// the BATCH span is stamped when it holds more than one.
  void HandleNewRequest(usize gq_index, const nvme::Sqe& sqe, u32 batch_n);
  /// Classification + dispatch of an admitted entry — the tail of
  /// HandleNewRequest, split out so QoS-deferred commands resume here.
  void StartRequest(RequestEntry* e);
  // Multi-tenant QoS (DESIGN.md §12): admission gate ahead of
  // classification, bounded FIFO of parked commands, timer-driven resume.
  /// Tokens one command costs: one per 4 KiB page, minimum one.
  static u32 QosTokenCost(const RequestEntry& e);
  /// Parks `e` (cost already computed) or sheds it at the bound.
  void QosParkOrShed(RequestEntry* e, u32 cost);
  /// Fails `e` with a busy status and accounts the shed.
  void QosShed(RequestEntry* e);
  /// Fails `e` with the same retryable busy status on an overload-Shed
  /// verdict (stamped OVERLOAD_SHED, accounted separately).
  void OverloadShed(RequestEntry* e);
  /// Reports the oldest parked head across shards (cost + park time) to
  /// the scheduler after any head change (anti-starvation reservation).
  void SyncParkedHead();
  /// Arms (or pulls in) the shard's resume timer for its parked FIFO.
  void ArmQosResume(RouterShard& sh, SimTime at);
  /// Resume timer body: admit the shard's parked commands in FIFO order
  /// until the scheduler defers again (re-arming at its retry_at) or the
  /// FIFO drains.
  void QosResume(u32 shard_index);
  // Batched pipeline (DESIGN.md §10). Every poll dispatch drains a batch:
  // while it is open, dispatches push without ringing and completions
  // defer their guest interrupt; FlushBatch rings each dirty HSQ doorbell
  // once, kicks the NSQ once and injects one interrupt per guest queue.
  // Timer contexts (retries, deadlines, QoS resume) run outside a batch.
  void BeginBatch();
  void FlushBatch();
  /// Commands one dispatch may drain (max_batch, at least one).
  u32 MaxBatch() const { return std::max<u32>(1, costs_->max_batch); }
  /// Schedules one guest interrupt for `sh`'s queue (which has a
  /// handler). It covers the req ids in the shard's scratch, stamping
  /// kIrqInject for each and counting the injection when it fires.
  void InjectGuestIrq(RouterShard& sh);
  void RunClassifierAndApply(RequestEntry* e, Hook hook,
                             nvme::NvmeStatus error);
  void ApplyVerdict(RequestEntry* e, u64 verdict);
  /// Partition check run by every leg before it sends: fails `e` with
  /// LBA Out of Range and returns false when its mediated range leaves
  /// this VM's partition.
  bool Contained(RequestEntry* e);
  void DispatchFast(RequestEntry* e);
  void DispatchNotify(RequestEntry* e);
  void DispatchKernel(RequestEntry* e);
  void OnTargetDone(u32 tag, Path path, nvme::NvmeStatus status,
                    u32 result = 0);
  void CompleteToGuest(RequestEntry* e, nvme::NvmeStatus status);
  void MaybeFree(RequestEntry* e);
  void FailRequest(RequestEntry* e, nvme::NvmeStatus status);

  // Failure recovery (DESIGN.md §9).
  /// Request deadline fired: abort outstanding legs, fail to the guest.
  void OnDeadline(u32 tag);
  /// A host CQE's cid failed the generation check (already counted by
  /// TakeCid): stamp a flight mark and fire the kStaleCidDrop anomaly.
  void OnStaleCid(RouterShard& sh, u16 cid);
  /// Schedules a backoff re-dispatch of a failed fast/kernel leg.
  /// Returns false when the retry budget is spent or retries are off.
  bool ScheduleRetryLeg(RequestEntry* e, Path path);
  /// Liveness watchdog: no NCQ progress with notify legs in flight.
  void ArmUifLiveness();
  void CheckUifLiveness();
  void DeclareUifDead();
  /// Drops every in-flight notify leg (UIF death or detach): counts the
  /// legs as timeouts (`dead=true`) or aborts (detach), then re-issues
  /// them on the kernel path or fails the requests.
  void HandleUifDead(bool dead, nvme::NvmeStatus fail_status);
  /// True when the entry's opcode has kernel-path (bio) semantics.
  static bool KernelEligible(const RequestEntry& e);

  /// Allocates a routing slot from the arriving queue's shard.
  RequestEntry* AllocEntry(usize gq_index);
  /// Resolves a tag to its shard's slab entry (null if freed/recycled).
  RequestEntry* EntryByTag(u32 tag);
  u64 SumStat(u64 ShardStats::* field) const {
    u64 sum = 0;
    for (const auto& sh : shards_) sum += sh->stats.*field;
    return sum;
  }

  /// Registers the router's cached metric pointers (no-op when obs_ is
  /// null; every hot-path hook is then one null-check branch).
  void InitMetrics();
  /// Stamps one lifecycle edge of `e` into its arrival shard's flight
  /// ring (no-op without obs_ / req_id).
  void Stamp(RequestEntry* e, obs::SpanKind kind, u16 status = 0,
             u64 aux = 0, u8 hook = 0);

  void Touch() { last_activity_ = sim_->now(); }

  sim::Simulator* sim_;
  ssd::SimulatedController* phys_;
  virt::Vm* vm_;
  Config cfg_;
  const RouterCosts* costs_;

  std::unique_ptr<ClassifierRuntime> classifier_;
  NotifyChannel* uif_ = nullptr;
  kblock::BlockDevice* kernel_dev_ = nullptr;

  // One shard per guest queue pair; unique_ptr keeps shard addresses
  // stable across AttachQueuePair (timer lambdas capture shard indices).
  std::vector<std::unique_ptr<RouterShard>> shards_;

  // Kernel-path completion mailbox, drained by the worker.
  std::deque<std::pair<u32, nvme::NvmeStatus>> kcq_mailbox_;

  bool fixed_translation_ = false;
  // QoS identity (the parked rings live on the shards).
  qos::QosScheduler* qos_ = nullptr;
  overload::OverloadController* ovl_ = nullptr;
  obs::FlightTriggers* ftrig_ = nullptr;
  u32 qos_tenant_ = 0;
  /// True between BeginBatch and FlushBatch; routes dispatch/completion
  /// doorbell work through the per-batch flush instead of per command.
  bool batch_active_ = false;
  RouterWorker* worker_ = nullptr;
  u32 src_vsq_ = 0, src_hcq_ = 0, src_ncq_ = 0, src_kcq_ = 0;
  SimTime last_activity_ = 0;

  u64 uif_failovers_ = 0;

  // UIF liveness tracking (active when uif_liveness_timeout_ns > 0).
  bool uif_dead_ = false;
  u32 notify_inflight_ = 0;
  SimTime last_ncq_progress_ = 0;
  sim::EventId liveness_ev_;

  // Observability (all pointers null when obs_ is null).
  obs::Observability* obs_ = nullptr;
  obs::Counter* m_started_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_table_full_ = nullptr;
  obs::Counter* m_vcq_retries_ = nullptr;
  obs::Counter* m_irq_injects_ = nullptr;
  obs::Counter* m_classifier_runs_ = nullptr;
  obs::Counter* m_timeouts_ = nullptr;      // "router.timeouts" (requests)
  obs::Counter* m_retries_ = nullptr;       // "router.retries" (legs)
  obs::Counter* m_uif_failovers_ = nullptr; // "uif.failovers" (death events)
  obs::Counter* m_sends_[3] = {};        // indexed by Path
  obs::Counter* m_completions_[3] = {};  // per-path target completions
  obs::Counter* m_aborts_[3] = {};       // dispatched but push/submit failed
  obs::Counter* m_errors_[3] = {};       // target completed with error status
  obs::Counter* m_path_timeouts_[3] = {};  // legs abandoned by deadline/death
  LatencyHistogram* m_latency_ = nullptr;       // all guest completions
  LatencyHistogram* m_path_latency_[3] = {};    // single-path requests only
  // "router.batch_size": drain sizes per dispatch. Registered only when
  // max_batch > 1: batches of one would only ever record 1, so metric
  // exports of max_batch = 1 runs carry no such histogram.
  LatencyHistogram* m_batch_size_ = nullptr;
  // "router.resubmits" / "router.chain_depth": registered lazily on the
  // first accepted resubmission so chain-free runs keep their metric
  // exports bit-identical (same pattern as the QoS/batch metrics).
  obs::Counter* m_resubmits_ = nullptr;
  LatencyHistogram* m_chain_depth_ = nullptr;
  // "router.inflight": open guest requests (gauge watermark = peak depth).
  obs::Gauge* m_inflight_ = nullptr;
  // "qos.waiting": commands parked for admission across all controllers
  // sharing the registry (watermark = peak backlog). Registered only by
  // AttachQos so QoS-off metric exports stay bit-identical.
  obs::Gauge* m_qos_waiting_ = nullptr;
};

/// A router worker thread polling the queues of its assigned VMs.
class RouterWorker {
 public:
  RouterWorker(sim::Simulator* sim, std::string name, RouterCosts costs,
               obs::Observability* obs = nullptr);

  /// Registers a controller's poll sources with this worker.
  void Attach(VirtualController* vc);

  void Start() { poller_.Start(); }
  bool sleeping() const { return poller_.sleeping(); }
  sim::VCpu* cpu() { return &cpu_; }
  sim::Poller& poller() { return poller_; }
  u64 busy_ns() const { return cpu_.busy_ns(); }

 private:
  sim::Simulator* sim_;
  sim::VCpu cpu_;
  sim::Poller poller_;
  std::vector<VirtualController*> vcs_;
};

/// Top-level control interface: owns workers and virtual controllers.
struct NvmetroHostConfig {
  u32 num_workers = 1;
  RouterCosts costs;
  /// Optional metrics + trace sink, shared by all workers/controllers.
  obs::Observability* obs = nullptr;
  /// Optional anomaly->dump framework; CreateController wires it into
  /// every new controller (same as calling AttachFlightTriggers).
  obs::FlightTriggers* flight_triggers = nullptr;
};

class NvmetroHost {
 public:
  using Config = NvmetroHostConfig;

  NvmetroHost(sim::Simulator* sim, ssd::SimulatedController* phys,
              Config cfg = {});

  /// Creates a virtual controller for `vm` over a namespace partition and
  /// assigns it to a worker round-robin.
  VirtualController* CreateController(virt::Vm* vm,
                                      VirtualController::Config cfg);

  /// Starts all router workers.
  void Start();

  /// Sum of router-thread CPU (for the overhead evaluations).
  u64 RouterCpuBusyNs() const;

  RouterWorker* worker(u32 i) { return workers_[i].get(); }
  u32 num_workers() const { return static_cast<u32>(workers_.size()); }
  VirtualController* controller(u32 i) { return controllers_[i].get(); }
  u32 num_controllers() const {
    return static_cast<u32>(controllers_.size());
  }
  const RouterCosts& costs() const { return cfg_.costs; }

 private:
  sim::Simulator* sim_;
  ssd::SimulatedController* phys_;
  Config cfg_;
  std::vector<std::unique_ptr<RouterWorker>> workers_;
  std::vector<std::unique_ptr<VirtualController>> controllers_;
  u32 next_worker_ = 0;
};

}  // namespace nvmetro::core
