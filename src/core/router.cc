#include "core/router.h"

#include <algorithm>
#include <cassert>

#include "obs/obs.h"
#include "overload/overload.h"
#include "qos/qos.h"

namespace nvmetro::core {

using nvme::Cqe;
using nvme::NvmeStatus;
using nvme::Sqe;

namespace {
constexpr u32 kLbaSize = 512;

/// Leg failures worth a backoff retry: path errors (NVMe-oF style
/// transport hiccups) and "namespace not ready" (which the kernel path
/// also synthesizes for ResourceExhausted bios — SQ-full, link-down).
bool IsTransientStatus(NvmeStatus s) {
  if (nvme::StatusSct(s) == nvme::kSctPathRelated) return true;
  return nvme::StatusSct(s) == nvme::kSctGeneric &&
         nvme::StatusSc(s) == nvme::kScNamespaceNotReady;
}

/// The per-command remainder of a cost whose `part` is charged once per
/// batch. Guards against a part configured larger than its parent.
SimTime PerCmdCost(SimTime total, SimTime part) {
  return total > part ? total - part : 0;
}
}  // namespace

// --- VirtualController --------------------------------------------------------

VirtualController::VirtualController(sim::Simulator* sim,
                                     ssd::SimulatedController* phys,
                                     virt::Vm* vm, Config cfg,
                                     const RouterCosts* costs,
                                     obs::Observability* obs)
    : sim_(sim), phys_(phys), vm_(vm), cfg_(cfg), costs_(costs), obs_(obs) {
  if (cfg_.part_nlb == 0) {
    cfg_.part_nlb = phys_->ns_block_count(cfg_.backend_nsid);
  }
  InitMetrics();
}

void VirtualController::InitMetrics() {
  if (!obs_) return;
  obs::MetricsRegistry& m = obs_->metrics();
  m_started_ = m.GetCounter("router.requests");
  m_completed_ = m.GetCounter("router.completed");
  m_failed_ = m.GetCounter("router.failed");
  m_table_full_ = m.GetCounter("router.table_full");
  m_vcq_retries_ = m.GetCounter("router.vcq.retries");
  m_irq_injects_ = m.GetCounter("router.irq.injects");
  m_classifier_runs_ = m.GetCounter("router.classifier.runs");
  m_timeouts_ = m.GetCounter("router.timeouts");
  m_retries_ = m.GetCounter("router.retries");
  m_uif_failovers_ = m.GetCounter("uif.failovers");
  static constexpr const char* kPathName[3] = {"fast", "notify", "kernel"};
  for (int p = 0; p < 3; p++) {
    std::string base = std::string("router.") + kPathName[p];
    m_sends_[p] = m.GetCounter(base + ".sends");
    m_completions_[p] = m.GetCounter(base + ".completions");
    m_aborts_[p] = m.GetCounter(base + ".aborts");
    m_errors_[p] = m.GetCounter(base + ".errors");
    m_path_timeouts_[p] = m.GetCounter(base + ".timeouts");
    m_path_latency_[p] = m.GetHistogram(base + ".latency_ns");
  }
  m_latency_ = m.GetHistogram("router.latency_ns");
  m_inflight_ = m.GetGauge("router.inflight");
  if (costs_->max_batch > 1) {
    m_batch_size_ = m.GetHistogram("router.batch_size");
  }
}

void VirtualController::Stamp(RequestEntry* e, obs::SpanKind kind,
                              u16 status, u64 aux, u8 hook) {
  // req_id is set only with obs_ attached, when every shard has a ring.
  if (!e->req_id) return;
  shards_[e->gq_index]->flight->Stamp(sim_->now(), e->req_id, kind, aux,
                                      status, e->tag, e->sqe.opcode, hook);
}

VirtualController::~VirtualController() {
  for (auto& sh : shards_) {
    if (sh->host_qid) phys_->DeleteIoQueuePair(sh->host_qid);
  }
}

Status VirtualController::InstallClassifier(ebpf::Program prog) {
  auto runtime = ClassifierRuntime::Create(std::move(prog));
  if (!runtime.ok()) return runtime.status();
  classifier_ = std::move(*runtime);
  classifier_->env().ktime_ns = [this] { return sim_->now(); };
  return OkStatus();
}

void VirtualController::AttachUif(NotifyChannel* channel) {
  uif_ = channel;
  uif_dead_ = false;
  uif_->SetPartitionInfo(cfg_.part_first_lba, cfg_.part_nlb, cfg_.vm_id);
  uif_->SetCompletionNotify([this] {
    if (worker_) worker_->poller().Notify(src_ncq_);
  });
}

void VirtualController::DetachUif() {
  if (uif_) {
    // Administrative detach: fail in-flight notify legs now — leaving
    // them stranded would leak the routing slot and the guest would
    // never see a CQE.
    HandleUifDead(/*dead=*/false, nvme::MakeStatus(nvme::kSctGeneric,
                                                   nvme::kScAbortRequested));
  }
  uif_ = nullptr;
  uif_dead_ = false;
  notify_inflight_ = 0;
  if (liveness_ev_.valid()) {
    sim_->Cancel(liveness_ev_);
    liveness_ev_ = {};
  }
}

void VirtualController::AttachKernelDevice(kblock::BlockDevice* dev) {
  kernel_dev_ = dev;
}

Status VirtualController::AttachQueuePair(u16 qid, nvme::SqRing* sq,
                                          nvme::CqRing* cq, u64 /*sq_gpa*/,
                                          u64 /*cq_gpa*/) {
  if (!worker_)
    return FailedPrecondition("controller not attached to a router worker");
  if (shards_.size() >= kMaxShards) {
    return FailedPrecondition("per-VM queue-pair (shard) limit reached");
  }
  auto sh = std::make_unique<RouterShard>(static_cast<u32>(shards_.size()));
  sh->qid = qid;
  sh->vsq = sq;
  sh->vcq = cq;
  auto host_q = phys_->CreateIoQueuePair(
      sq->entries(),
      [this] {
        if (worker_) worker_->poller().Notify(src_hcq_);
      },
      &vm_->memory());
  if (!host_q.ok()) return host_q.status();
  sh->host_qid = *host_q;
  // Completions awaiting one interrupt are bounded by the VCQ depth;
  // reserving to it keeps deep batches reallocation-free.
  sh->ReserveScratch(cq->entries());
  // Flight ring allocated at attach time (never on the IO path); the
  // queue index is the shard index so TagShard(tag) resolves it.
  if (obs_) {
    sh->flight = obs_->flight().RegisterRing(cfg_.vm_id, sh->index());
  }
  if (qos_) {
    u32 cap = qos_->max_deferred(qos_tenant_);
    sh->qos_ring.assign(cap ? cap : 1, RouterShard::Waiter{});
  }
  shards_.push_back(std::move(sh));
  return OkStatus();
}

bool VirtualController::parked() const {
  return sim_->now() - last_activity_ > costs_->vm_park_timeout_ns;
}

SimTime VirtualController::SqDoorbell(u16 /*qid*/) {
  bool trap = parked() || (worker_ && worker_->sleeping());
  Touch();
  if (worker_) worker_->poller().Notify(src_vsq_);
  return trap ? costs_->guest_doorbell_trap_ns
              : costs_->guest_doorbell_mmio_ns;
}

void VirtualController::CqDoorbell(u16 /*qid*/) {
  // Head publication is visible through the shared VCQ ring; nothing to
  // do host-side.
}

void VirtualController::SetIrqHandler(u16 qid, std::function<void()> handler) {
  for (auto& sh : shards_) {
    if (sh->qid == qid) {
      sh->irq = std::move(handler);
      return;
    }
  }
  // Queue attached later gets its handler set then; tolerate early calls.
}

u64 VirtualController::CapacityBytes() const {
  return cfg_.part_nlb * kLbaSize;
}

RequestEntry* VirtualController::AllocEntry(usize gq_index) {
  return shards_[gq_index]->AllocEntry();
}

RequestEntry* VirtualController::EntryByTag(u32 tag) {
  u32 shard = TagShard(tag);
  if (shard >= shards_.size()) return nullptr;
  return shards_[shard]->EntryByTag(tag);
}

void VirtualController::PollVsq(usize /*unused*/) {
  Touch();
  // Drain (DESIGN.md §10): take every published entry — up to max_batch —
  // in one dispatch. The classifier context marshal is paid once per
  // batch; each downstream queue gets one doorbell at flush.
  u32 avail = 0;
  for (const auto& sh : shards_) avail += sh->vsq->Pending();
  if (avail == 0) return;  // a prior drain already consumed this edge
  u32 n = std::min(avail, MaxBatch());
  if (m_batch_size_) m_batch_size_->Record(n);
  BeginBatch();
  worker_->cpu()->Charge(costs_->vsq_batch_setup_ns);
  u32 left = n;
  for (usize i = 0; i < shards_.size() && left; i++) {
    Sqe sqe;
    while (left && shards_[i]->vsq->Pop(&sqe)) {
      HandleNewRequest(i, sqe, n);
      left--;
    }
  }
  FlushBatch();
  for (const auto& sh : shards_) {
    if (!sh->vsq->Empty() && worker_) {
      worker_->poller().Notify(src_vsq_);
      break;
    }
  }
}

void VirtualController::HandleNewRequest(usize gq_index, const Sqe& sqe,
                                         u32 batch_n) {
  worker_->cpu()->Charge(
      PerCmdCost(costs_->vsq_pop_ns, costs_->vsq_batch_setup_ns));
  RequestEntry* e = AllocEntry(gq_index);
  if (!e) {
    // Routing slab exhausted: fail the request (guest sees a busy-ish
    // internal error and retries).
    if (m_table_full_) m_table_full_->Inc();
    worker_->cpu()->Charge(costs_->vcq_post_ns);
    RouterShard& sh = *shards_[gq_index];
    Cqe cqe;
    cqe.cid = sqe.cid;
    cqe.sq_id = sh.qid;
    cqe.sq_head = sh.vsq->head();
    cqe.set_status(
        nvme::MakeStatus(nvme::kSctGeneric, nvme::kScAbortRequested));
    sh.vcq->Push(cqe);
    if (sh.irq) {
      sim_->ScheduleAfter(costs_->irq_inject_latency_ns, sh.irq);
    }
    return;
  }
  e->sqe = sqe;
  e->gq_index = static_cast<u16>(gq_index);
  e->mediated_slba = sqe.slba();
  e->mediated_nlb = sqe.block_count();
  if (obs_) {
    e->req_id = obs_->trace().BeginRequest();
    e->start_ns = sim_->now();
    if (m_started_) m_started_->Inc();
    if (m_inflight_) m_inflight_->Add(1);
    Stamp(e, obs::SpanKind::kVsqPop, 0, sqe.opcode);
    // Size-1 batches stay unstamped so every existing golden trace is
    // preserved; aux carries the batch size.
    if (batch_n > 1) Stamp(e, obs::SpanKind::kBatch, 0, batch_n);
  }
  if (costs_->request_timeout_ns) {
    u32 tag = e->tag;
    e->deadline_ev = sim_->ScheduleAfter(costs_->request_timeout_ns,
                                         [this, tag] { OnDeadline(tag); });
  }
  if (qos_) {
    // Admission ahead of classification (DESIGN.md §12). Arrivals behind
    // parked commands park too (FIFO per shard — tokens go to the oldest
    // waiter first); beyond the deferral bound they are shed.
    worker_->cpu()->Charge(costs_->qos_admit_ns);
    RouterShard& sh = *shards_[gq_index];
    u32 cost = QosTokenCost(*e);
    if (sh.qos_count > 0) {
      QosParkOrShed(e, cost);
      return;
    }
    // Overload gate ahead of token arbitration (DESIGN.md §13): Shed
    // refuses outright, Defer paces via the same parked ring.
    if (ovl_) {
      overload::Verdict v = ovl_->Admit(qos_tenant_, cost, sim_->now());
      if (v.action == overload::Verdict::Action::kShed) {
        OverloadShed(e);
        return;
      }
      if (v.action == overload::Verdict::Action::kDefer) {
        QosParkOrShed(e, cost);
        if (sh.qos_count > 0) ArmQosResume(sh, v.retry_at);
        return;
      }
    }
    qos::AdmitResult r = qos_->Admit(qos_tenant_, cost, sim_->now());
    if (r.action == qos::AdmitResult::Action::kDefer) {
      // Give back pacing credit the overload gate charged: the command
      // is not running after all.
      if (ovl_) ovl_->Refund(qos_tenant_, cost);
      QosParkOrShed(e, cost);
      if (sh.qos_count > 0) ArmQosResume(sh, r.retry_at);
      return;
    }
  }
  StartRequest(e);
}

void VirtualController::StartRequest(RequestEntry* e) {
  if (fixed_translation_) {
    // MDev-NVMe mode: fixed translation, fast path only.
    worker_->cpu()->Charge(costs_->mdev_handle_ns);
    if (e->sqe.is_io_data_cmd() || e->sqe.opcode == nvme::kCmdWriteZeroes) {
      e->mediated_slba += cfg_.part_first_lba;
    }
    ApplyVerdict(e, kSendHq | kWillCompleteHq);
    return;
  }
  if (!classifier_) {
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScInternalError));
    return;
  }
  RunClassifierAndApply(e, kHookVsq, nvme::kStatusSuccess);
}

void VirtualController::RunClassifierAndApply(RequestEntry* e, Hook hook,
                                              NvmeStatus error) {
  ClassifierCtx ctx;
  ctx.current_hook = hook;
  ctx.opcode = e->sqe.opcode;
  ctx.nsid = e->sqe.nsid;
  ctx.slba = e->mediated_slba;
  ctx.nlb = e->mediated_nlb;
  ctx.error = error;
  ctx.state = e->state;
  ctx.vm_id = cfg_.vm_id;
  ctx.part_offset = cfg_.part_first_lba;
  ctx.part_limit = cfg_.part_nlb;
  ctx.cmd_arg = static_cast<u64>(e->sqe.cdw2) |
                (static_cast<u64>(e->sqe.cdw3) << 32);
  ctx.chain_depth = e->chain_depth;
  // At completion hooks of a successful read, expose the completed
  // data: the guest buffer already holds it, so map the first PRP page
  // read-only into the classifier (never across the page boundary, and
  // never a PRP-list walk — that is all a chain hop may inspect).
  if (hook != kHookVsq && e->sqe.opcode == nvme::kCmdRead &&
      nvme::StatusOk(error) && e->sqe.prp1 != 0) {
    u64 page_room = mem::kPageSize - (e->sqe.prp1 & (mem::kPageSize - 1));
    u64 len = static_cast<u64>(e->mediated_nlb) * kLbaSize;
    if (len > page_room) len = page_room;
    if (const u8* p = vm_->memory().TranslateConst(e->sqe.prp1, len)) {
      ctx.data = reinterpret_cast<u64>(p);
      ctx.data_len = len;
    }
  }
  auto result = classifier_->Run(&ctx);
  worker_->cpu()->Charge(result.cpu_cost);
  if (m_classifier_runs_) m_classifier_runs_->Inc();
  Stamp(e, obs::SpanKind::kClassifier, error, result.verdict,
        static_cast<u8>(hook));
  if (!result.status.ok()) {
    // A verified classifier cannot fail at runtime; treat as fatal for
    // the request.
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScInternalError));
    return;
  }
  e->mediated_slba = ctx.slba;
  e->mediated_nlb = static_cast<u32>(ctx.nlb);
  e->state = ctx.state;
  if (result.verdict & kResubmit) {
    // Below-guest dependent read: re-issue with the rewritten slba/nlb
    // instead of completing. Only valid at a completion hook of a
    // successful read, within the chain-depth bound, and without
    // growing the transfer beyond the guest's original buffer.
    bool depth_breach = hook != kHookVsq &&
                        e->sqe.opcode == nvme::kCmdRead &&
                        nvme::StatusOk(error) &&
                        e->chain_depth >= costs_->max_resubmit_depth;
    if (hook == kHookVsq || e->sqe.opcode != nvme::kCmdRead ||
        !nvme::StatusOk(error) || depth_breach || e->mediated_nlb == 0 ||
        e->mediated_nlb > e->sqe.block_count()) {
      if (depth_breach && ftrig_) {
        // Runaway classifier chain: forensic dump before the request is
        // failed (cold path — the chain is already dead).
        ftrig_->Fire(obs::FlightTrigger::kResubmitDepthBreach, sim_->now(),
                     "vm=" + std::to_string(cfg_.vm_id) +
                         " req=" + std::to_string(e->req_id) +
                         " depth=" + std::to_string(e->chain_depth));
      }
      FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                      nvme::kScInternalError));
      return;
    }
    e->chain_depth++;
    worker_->cpu()->Charge(costs_->resubmit_ns);
    shards_[e->gq_index]->stats.resubmits++;
    if (obs_ && !m_resubmits_) {
      m_resubmits_ = obs_->metrics().GetCounter("router.resubmits");
    }
    if (m_resubmits_) m_resubmits_->Inc();
    Stamp(e, obs::SpanKind::kResubmit, error, ctx.slba,
          static_cast<u8>(hook));
    ApplyVerdict(e, kSendHq | kHookOnHcq | kWaitForHook);
    return;
  }
  ApplyVerdict(e, result.verdict);
}

void VirtualController::ApplyVerdict(RequestEntry* e, u64 verdict) {
  if (verdict & kComplete) {
    CompleteToGuest(e, static_cast<NvmeStatus>(verdict & kStatusMask));
    return;
  }
  // Record (replace) hook/completion policy.
  e->hook_flags = 0;
  if (verdict & kHookOnHcq) e->hook_flags |= 1u << kPathH;
  if (verdict & kHookOnNcq) e->hook_flags |= 1u << kPathN;
  if (verdict & kHookOnKcq) e->hook_flags |= 1u << kPathK;
  e->will_flags = 0;
  if (verdict & kWillCompleteHq) e->will_flags |= 1u << kPathH;
  if (verdict & kWillCompleteNq) e->will_flags |= 1u << kPathN;
  if (verdict & kWillCompleteKq) e->will_flags |= 1u << kPathK;
  e->wait_for_hook = (verdict & kWaitForHook) != 0;

  u32 sends = 0;
  if (verdict & kSendHq) sends++;
  if (verdict & kSendNq) sends++;
  if (verdict & kSendKq) sends++;
  if (sends == 0 && e->outstanding == 0) {
    // Classifier produced no action: misbehaving policy.
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScInternalError));
    return;
  }
  if (verdict & kSendHq) DispatchFast(e);
  if (e->completed) return;  // dispatch may fail the request
  if (verdict & kSendNq) DispatchNotify(e);
  if (e->completed) return;
  if (verdict & kSendKq) DispatchKernel(e);
}

bool VirtualController::Contained(RequestEntry* e) {
  // Isolation: whatever the classifier did, a routed data command must
  // stay inside this VM's partition of the backend namespace — on every
  // leg, since the UIFs and the kernel device address it absolutely.
  if (!e->sqe.is_io_data_cmd() && e->sqe.opcode != nvme::kCmdWriteZeroes) {
    return true;
  }
  u64 first = cfg_.part_first_lba;
  u64 limit = first + cfg_.part_nlb;
  if (e->mediated_slba >= first && e->mediated_slba < limit &&
      e->mediated_nlb <= limit - e->mediated_slba) {
    return true;
  }
  FailRequest(e,
              nvme::MakeStatus(nvme::kSctGeneric, nvme::kScLbaOutOfRange));
  return false;
}

void VirtualController::DispatchFast(RequestEntry* e) {
  RouterShard& sh = *shards_[e->gq_index];
  if (!Contained(e)) return;
  worker_->cpu()->Charge(batch_active_
                             ? PerCmdCost(costs_->fast_forward_ns,
                                          costs_->sq_doorbell_ns)
                             : costs_->fast_forward_ns);
  Sqe out = e->sqe;
  out.nsid = cfg_.backend_nsid;
  out.set_slba(e->mediated_slba);
  if (e->sqe.is_io_data_cmd() || e->sqe.opcode == nvme::kCmdWriteZeroes) {
    out.set_nlb0(static_cast<u16>(e->mediated_nlb - 1));
  }
  // Allocate a generation-checked host cid bound to the routing tag.
  u16 cid;
  if (!sh.AllocCid(e->tag, &cid)) {
    // Cid space exhausted (bounded by the slab, so effectively
    // unreachable): transient backpressure, same handling as a full
    // host SQ.
    if (m_aborts_[kPathH]) m_aborts_[kPathH]->Inc();
    if (ScheduleRetryLeg(e, kPathH)) return;
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScAbortRequested));
    return;
  }
  out.cid = cid;
  e->outstanding++;
  e->pending[kPathH]++;
  sh.stats.fast_sends++;
  e->paths_used |= 1u << kPathH;
  if (m_sends_[kPathH]) m_sends_[kPathH]->Inc();
  Stamp(e, obs::SpanKind::kDispatchFast, 0, e->mediated_slba);
  // In a batch the command is pushed without ringing; FlushBatch rings
  // each dirty HSQ tail doorbell once for the whole batch.
  bool pushed = batch_active_ ? phys_->Push(sh.host_qid, out)
                              : phys_->Submit(sh.host_qid, out);
  if (pushed && batch_active_) sh.batch_ring = true;
  if (!pushed) {
    sh.FreeCid(cid);
    e->outstanding--;
    e->pending[kPathH]--;
    if (m_aborts_[kPathH]) m_aborts_[kPathH]->Inc();
    // A full host SQ is transient backpressure: back off and retry when
    // a budget is configured; otherwise the push failure aborts the
    // request as before.
    if (ScheduleRetryLeg(e, kPathH)) return;
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScAbortRequested));
  }
}

void VirtualController::DispatchNotify(RequestEntry* e) {
  if (!uif_ || uif_dead_) {
    // Dead or missing UIF: the failover policy may re-route notify
    // verdicts to the kernel path; otherwise the request fails.
    if (uif_dead_ && costs_->uif_failover_to_kernel && kernel_dev_ &&
        KernelEligible(*e)) {
      DispatchKernel(e);
      return;
    }
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScInternalError));
    return;
  }
  if (!Contained(e)) return;
  worker_->cpu()->Charge(batch_active_
                             ? PerCmdCost(costs_->notify_push_ns,
                                          costs_->notify_kick_ns)
                             : costs_->notify_push_ns);
  NotifyEntry entry;
  entry.sqe = e->sqe;
  entry.sqe.set_slba(e->mediated_slba);
  if (e->sqe.is_io_data_cmd()) {
    entry.sqe.set_nlb0(static_cast<u16>(e->mediated_nlb - 1));
  }
  entry.tag = e->tag;
  entry.vm_id = cfg_.vm_id;
  entry.req_id = e->req_id;
  e->outstanding++;
  e->pending[kPathN]++;
  shards_[e->gq_index]->stats.notify_sends++;
  e->paths_used |= 1u << kPathN;
  if (m_sends_[kPathN]) m_sends_[kPathN]->Inc();
  Stamp(e, obs::SpanKind::kDispatchNotify, 0, e->mediated_slba);
  if (!uif_->PushRequest(entry)) {
    e->outstanding--;
    e->pending[kPathN]--;
    if (m_aborts_[kPathN]) m_aborts_[kPathN]->Inc();
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScAbortRequested));
    return;
  }
  if (notify_inflight_++ == 0) last_ncq_progress_ = sim_->now();
  if (costs_->uif_liveness_timeout_ns && !liveness_ev_.valid()) {
    ArmUifLiveness();
  }
}

void VirtualController::DispatchKernel(RequestEntry* e) {
  if (!kernel_dev_) {
    FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                    nvme::kScInternalError));
    return;
  }
  // Only commands with Linux block-layer semantics can take this path
  // (paper §III-A).
  kblock::Bio bio;
  switch (e->sqe.opcode) {
    case nvme::kCmdRead:
      bio.op = kblock::Bio::Op::kRead;
      break;
    case nvme::kCmdWrite:
      bio.op = kblock::Bio::Op::kWrite;
      break;
    case nvme::kCmdFlush:
      bio.op = kblock::Bio::Op::kFlush;
      break;
    default:
      FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                      nvme::kScInvalidOpcode));
      return;
  }
  worker_->cpu()->Charge(costs_->kernel_submit_ns);
  if (bio.op != kblock::Bio::Op::kFlush) {
    if (!Contained(e)) return;
    bio.sector = e->mediated_slba;  // kernel device is namespace-absolute
    u64 len = static_cast<u64>(e->mediated_nlb) * kLbaSize;
    std::vector<nvme::PrpSegment> segs;
    Status st = nvme::WalkPrps(vm_->memory(), e->sqe, len, &segs);
    if (!st.ok()) {
      FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                      nvme::kScDataTransferError));
      return;
    }
    for (const auto& s : segs) {
      u8* p = vm_->memory().Translate(s.gpa, s.len);
      bio.segments.push_back({p, s.len});
    }
  }
  u32 tag = e->tag;
  bio.on_complete = [this, tag](Status st) {
    // ResourceExhausted is what the link/backpressure layer reports for
    // recoverable conditions — surface it as "namespace not ready" so the
    // retry policy can tell it apart from hard media errors.
    NvmeStatus ns =
        st.ok() ? nvme::kStatusSuccess
        : st.code() == StatusCode::kResourceExhausted
            ? nvme::MakeStatus(nvme::kSctGeneric, nvme::kScNamespaceNotReady)
            : nvme::MakeStatus(nvme::kSctGeneric, nvme::kScInternalError);
    if (obs_) {
      // The device-side edge of the kernel path: without it, span
      // analytics cannot split device service from mailbox residency.
      RequestEntry* entry = EntryByTag(tag);
      if (entry && entry->req_id && entry->pending[kPathK]) {
        Stamp(entry, obs::SpanKind::kKernelDone, ns);
      }
    }
    kcq_mailbox_.emplace_back(tag, ns);
    if (worker_) worker_->poller().Notify(src_kcq_);
  };
  e->outstanding++;
  e->pending[kPathK]++;
  shards_[e->gq_index]->stats.kernel_sends++;
  e->paths_used |= 1u << kPathK;
  if (m_sends_[kPathK]) m_sends_[kPathK]->Inc();
  Stamp(e, obs::SpanKind::kDispatchKernel, 0, e->mediated_slba);
  kernel_dev_->Submit(std::move(bio));
}

void VirtualController::PollHcq() {
  Touch();
  // Harvest up to max_batch CQEs across the host CQs, publishing each
  // queue's head doorbell once, then flush the resulting VCQ posts with
  // one guest interrupt per queue.
  BeginBatch();
  u32 left = MaxBatch();
  u32 n = 0;
  for (auto& shp : shards_) {
    RouterShard& sh = *shp;
    nvme::CqRing* cq = phys_->cq(sh.host_qid);
    if (!cq) continue;
    Cqe cqe;
    bool popped_any = false;
    while (left && cq->Peek(&cqe)) {
      cq->Pop();
      popped_any = true;
      left--;
      n++;
      worker_->cpu()->Charge(
          PerCmdCost(costs_->hcq_handle_ns, costs_->cq_doorbell_ns));
      u32 tag = sh.TakeCid(cqe.cid);
      if (tag != kNoTag) {
        OnTargetDone(tag, kPathH, cqe.status(), cqe.result);
      } else {
        OnStaleCid(sh, cqe.cid);
      }
    }
    if (popped_any) {
      worker_->cpu()->Charge(costs_->cq_doorbell_ns);
      cq->PublishHead();
      phys_->RingCqDoorbell(sh.host_qid);
    }
    if (!left) break;
  }
  if (n && m_batch_size_) m_batch_size_->Record(n);
  FlushBatch();
  for (auto& sh : shards_) {
    nvme::CqRing* cq = phys_->cq(sh->host_qid);
    if (cq && !cq->Empty() && worker_) {
      worker_->poller().Notify(src_hcq_);
      break;
    }
  }
}

void VirtualController::PollNcq() {
  Touch();
  if (!uif_) return;
  BeginBatch();
  u32 left = MaxBatch();
  u32 n = 0;
  NotifyCompletion c;
  while (left && uif_->PopCompletion(&c)) {
    last_ncq_progress_ = sim_->now();
    worker_->cpu()->Charge(costs_->ncq_handle_ns);
    OnTargetDone(c.tag, kPathN, c.status);
    left--;
    n++;
  }
  if (n && m_batch_size_) m_batch_size_->Record(n);
  FlushBatch();
  if (uif_ && uif_->PendingCompletions() > 0 && worker_) {
    worker_->poller().Notify(src_ncq_);
  }
}

void VirtualController::PollKcq() {
  Touch();
  if (kcq_mailbox_.empty()) return;
  BeginBatch();
  u32 left = MaxBatch();
  u32 n = 0;
  while (left && !kcq_mailbox_.empty()) {
    auto [tag, status] = kcq_mailbox_.front();
    kcq_mailbox_.pop_front();
    worker_->cpu()->Charge(costs_->kernel_complete_ns);
    OnTargetDone(tag, kPathK, status);
    left--;
    n++;
  }
  if (n && m_batch_size_) m_batch_size_->Record(n);
  FlushBatch();
  if (!kcq_mailbox_.empty() && worker_) {
    worker_->poller().Notify(src_kcq_);
  }
}

void VirtualController::BeginBatch() {
  batch_active_ = true;
  if (uif_) uif_->BeginBatch();
}

void VirtualController::FlushBatch() {
  batch_active_ = false;
  // One tail doorbell per host SQ the batch pushed into. Ordered before
  // the NSQ kick and the guest interrupts: fast, then notify, then
  // complete, as a command outside a batch does it.
  for (auto& sh : shards_) {
    if (!sh->batch_ring) continue;
    sh->batch_ring = false;
    worker_->cpu()->Charge(costs_->sq_doorbell_ns);
    phys_->RingSqDoorbell(sh->host_qid);
  }
  // One NSQ kick for every notify-path push of the batch.
  if (uif_ && uif_->EndBatch()) {
    worker_->cpu()->Charge(costs_->notify_kick_ns);
  }
  // One guest interrupt per guest queue with freshly posted CQEs.
  for (auto& sh : shards_) {
    if (!sh->batch_irq) continue;
    sh->batch_irq = false;
    worker_->cpu()->Charge(costs_->vcq_irq_ns);
    InjectGuestIrq(*sh);
  }
}

void VirtualController::InjectGuestIrq(RouterShard& sh) {
  std::vector<u64>& ids = sh.batch_irq_reqs;
  if (ids.empty()) {
    // Recording is off: nothing to stamp or count.
    sim_->ScheduleAfter(costs_->irq_inject_latency_ns, sh.irq);
    return;
  }
  // The entries may be freed before the posted interrupt fires, so the
  // event owns its req ids and the flight ring pointer (stable for the
  // controller's lifetime). The scratch is copied, not moved — moving
  // would steal its reserved capacity — and a single-request interrupt,
  // the common case, copies nothing to the heap.
  auto irq = sh.irq;
  obs::FlightRing* fr = sh.flight;
  u64 first = ids.front();
  std::vector<u64> rest(ids.begin() + 1, ids.end());
  ids.clear();
  sim_->ScheduleAfter(
      costs_->irq_inject_latency_ns,
      [this, irq, fr, first, rest = std::move(rest)] {
        fr->Stamp(sim_->now(), first, obs::SpanKind::kIrqInject);
        for (u64 rid : rest) {
          fr->Stamp(sim_->now(), rid, obs::SpanKind::kIrqInject);
        }
        m_irq_injects_->Inc();
        irq();
      });
}

void VirtualController::OnTargetDone(u32 tag, Path path, NvmeStatus status,
                                     u32 result) {
  RequestEntry* e = EntryByTag(tag);
  if (!e) return;
  // Stale-leg guard: the leg was already settled by a timeout or UIF
  // failover — its send was accounted there, so drop the late completion
  // without touching any counter.
  if (e->pending[path] == 0) return;
  e->pending[path]--;
  if (path == kPathN && notify_inflight_ > 0) notify_inflight_--;
  if (m_completions_[path]) m_completions_[path]->Inc();
  if (!nvme::StatusOk(status) && m_errors_[path]) m_errors_[path]->Inc();
  Stamp(e,
        path == kPathH   ? obs::SpanKind::kHcqComplete
        : path == kPathN ? obs::SpanKind::kNcqComplete
                         : obs::SpanKind::kKcqComplete,
        status, result);
  if (path == kPathH) e->result = result;
  e->outstanding--;
  if (e->completed) {
    MaybeFree(e);
    return;
  }
  // Transient leg errors get a backoff retry (new send) instead of
  // propagating to the guest — unless the classifier hooked this path
  // and gets to decide itself.
  if (!nvme::StatusOk(status) && IsTransientStatus(status) &&
      !(e->hook_flags & (1u << path)) && ScheduleRetryLeg(e, path)) {
    return;
  }
  if (!nvme::StatusOk(status) && nvme::StatusOk(e->agg_status)) {
    e->agg_status = status;
  }
  u32 bit = 1u << path;
  if (e->hook_flags & bit) {
    e->hook_flags &= ~bit;
    Hook hook = path == kPathH ? kHookHcq
                : path == kPathN ? kHookNcq
                                 : kHookKcq;
    RunClassifierAndApply(e, hook, status);
    return;
  }
  if (e->will_flags & bit) {
    if (e->outstanding == 0) {
      CompleteToGuest(e, nvme::StatusOk(e->agg_status) ? status
                                                       : e->agg_status);
    }
    return;
  }
  if (e->wait_for_hook) return;  // another path's hook will decide
  if (e->outstanding == 0) {
    // Default: complete with the final target's status.
    CompleteToGuest(e, nvme::StatusOk(e->agg_status) ? status
                                                     : e->agg_status);
  }
}

void VirtualController::CompleteToGuest(RequestEntry* e, NvmeStatus status) {
  if (e->deadline_ev.valid()) {
    sim_->Cancel(e->deadline_ev);
    e->deadline_ev = {};
  }
  if (e->completed) return;
  e->completed = true;
  RouterShard& sh = *shards_[e->gq_index];
  sh.stats.completed++;
  // In a batch the interrupt-injection part of the post cost is deferred
  // to FlushBatch, charged once per guest queue per batch.
  bool defer_irq = batch_active_ && sh.irq != nullptr;
  worker_->cpu()->Charge(defer_irq ? PerCmdCost(costs_->vcq_post_ns,
                                                costs_->vcq_irq_ns)
                                   : costs_->vcq_post_ns);
  Cqe cqe;
  cqe.cid = e->sqe.cid;
  cqe.sq_id = sh.qid;
  cqe.sq_head = sh.vsq->head();
  cqe.result = e->result;
  cqe.set_status(status);
  if (!sh.vcq->Push(cqe)) {
    // VCQ full: retry until the guest frees slots.
    e->completed = false;
    sh.stats.completed--;
    if (m_vcq_retries_) m_vcq_retries_->Inc();
    u32 tag = e->tag;
    sim_->ScheduleAfter(5 * kUs, [this, tag, status] {
      RequestEntry* entry = EntryByTag(tag);
      if (entry) CompleteToGuest(entry, status);
    });
    return;
  }
  if (obs_ && e->req_id) {
    Stamp(e, obs::SpanKind::kVcqPost, status);
    obs_->trace().EndRequest();
    if (m_inflight_) m_inflight_->Add(-1);
    SimTime lat = sim_->now() - e->start_ns;
    m_latency_->Record(lat);
    if (e->chain_depth > 0) {
      // One guest-visible completion for the whole resubmission chain;
      // the histogram attributes how many hops it hid.
      if (!m_chain_depth_) {
        m_chain_depth_ = obs_->metrics().GetHistogram("router.chain_depth");
      }
      m_chain_depth_->Record(e->chain_depth);
    }
    // Per-tenant goodput latency: shed/failed completions are accounted
    // through the shed/failed counters, not the latency distribution.
    if (qos_ && !e->failed_marked) qos_->RecordLatency(qos_tenant_, lat);
    // Per-path latency only when the request took exactly one path.
    for (int p = 0; p < 3; p++) {
      if (e->paths_used == (1u << p)) m_path_latency_[p]->Record(lat);
    }
    if (m_completed_ && !e->failed_marked) m_completed_->Inc();
  }
  if (sh.irq) {
    if (obs_ && e->req_id) {
      RouterShard::PushScratch(&sh.batch_irq_reqs, e->req_id);
    }
    // In a batch, FlushBatch signals the whole batch with one interrupt;
    // outside one (timer contexts) the interrupt goes out now.
    if (defer_irq) {
      sh.batch_irq = true;
    } else {
      InjectGuestIrq(sh);
    }
  }
  MaybeFree(e);
}

void VirtualController::MaybeFree(RequestEntry* e) {
  if (e->completed && e->outstanding == 0) {
    shards_[TagShard(e->tag)]->FreeEntry(e);
  }
}

void VirtualController::FailRequest(RequestEntry* e, NvmeStatus status) {
  shards_[TagShard(e->tag)]->stats.failed++;
  if (!e->failed_marked) {
    e->failed_marked = true;
    if (m_failed_) m_failed_->Inc();
  }
  CompleteToGuest(e, status);
}

void VirtualController::OnDeadline(u32 tag) {
  RequestEntry* e = EntryByTag(tag);
  if (!e) return;
  RouterShard& sh = *shards_[TagShard(tag)];
  e->deadline_ev = {};
  if (e->completed) return;  // completion raced the deadline event
  worker_->cpu()->Charge(costs_->timeout_abort_ns);
  sh.stats.timeouts++;
  if (m_timeouts_) m_timeouts_->Inc();
  Stamp(e, obs::SpanKind::kTimeout, 0, e->outstanding);
  if (ftrig_) {
    // A request deadline means fault recovery gave up on outstanding
    // legs — exactly the moment the black box is worth reading.
    ftrig_->Fire(obs::FlightTrigger::kDeadlineAbort, sim_->now(),
                 "vm=" + std::to_string(cfg_.vm_id) +
                     " req=" + std::to_string(e->req_id) +
                     " outstanding=" + std::to_string(e->outstanding));
  }
  for (int p = 0; p < 3; p++) {
    if (e->pending[p] && m_path_timeouts_[p]) {
      m_path_timeouts_[p]->Inc(e->pending[p]);
    }
  }
  if (notify_inflight_ >= e->pending[kPathN]) {
    notify_inflight_ -= e->pending[kPathN];
  } else {
    notify_inflight_ = 0;
  }
  // Orphan the host cids still mapped to this request so a late HCQ
  // completion cannot resolve to a recycled slot (its stale generation
  // handle is dropped by TakeCid).
  sh.FreeCidsOf(tag);
  e->pending[0] = e->pending[1] = e->pending[2] = 0;
  e->outstanding = 0;
  e->retry_pending = 0;
  e->hook_flags = 0;
  e->will_flags = 0;
  e->wait_for_hook = false;
  FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScAbortRequested));
}

void VirtualController::OnStaleCid(RouterShard& sh, u16 cid) {
  if (obs_) {
    obs_->flight().Mark(sim_->now(), obs::SpanKind::kStaleCidDrop, cid);
  }
  if (ftrig_) {
    ftrig_->Fire(obs::FlightTrigger::kStaleCidDrop, sim_->now(),
                 "vm=" + std::to_string(cfg_.vm_id) +
                     " queue=" + std::to_string(sh.index()) +
                     " cid=" + std::to_string(cid));
  }
}

bool VirtualController::ScheduleRetryLeg(RequestEntry* e, Path path) {
  if (path == kPathN) return false;  // notify legs fail over, never retry
  if (!costs_->max_retries || e->retries >= costs_->max_retries) return false;
  SimTime backoff = costs_->retry_backoff_ns << e->retries;
  e->retries++;
  e->retry_pending++;
  e->outstanding++;
  shards_[e->gq_index]->stats.retries++;
  if (m_retries_) m_retries_->Inc();
  Stamp(e, obs::SpanKind::kRetry, 0, static_cast<u64>(path));
  u32 tag = e->tag;
  sim_->ScheduleAfter(backoff, [this, tag, path] {
    RequestEntry* entry = EntryByTag(tag);
    if (!entry) return;
    if (entry->retry_pending == 0) return;  // timed out during backoff
    entry->retry_pending--;
    entry->outstanding--;
    if (entry->completed) {
      MaybeFree(entry);
      return;
    }
    if (path == kPathH) {
      DispatchFast(entry);
    } else {
      DispatchKernel(entry);
    }
  });
  return true;
}

void VirtualController::ArmUifLiveness() {
  if (!costs_->uif_liveness_timeout_ns || uif_dead_ || liveness_ev_.valid()) {
    return;
  }
  liveness_ev_ = sim_->ScheduleAfter(costs_->uif_liveness_timeout_ns,
                                     [this] { CheckUifLiveness(); });
}

void VirtualController::CheckUifLiveness() {
  liveness_ev_ = {};
  if (!uif_ || uif_dead_ || !costs_->uif_liveness_timeout_ns) return;
  // Disarm while idle; the next notify dispatch re-arms the watchdog.
  // (Self-rescheduling with no in-flight work would keep Run() alive
  // forever.)
  if (notify_inflight_ == 0) return;
  SimTime idle = sim_->now() - last_ncq_progress_;
  if (idle >= costs_->uif_liveness_timeout_ns) {
    DeclareUifDead();
    return;
  }
  liveness_ev_ = sim_->ScheduleAfter(costs_->uif_liveness_timeout_ns - idle,
                                     [this] { CheckUifLiveness(); });
}

void VirtualController::DeclareUifDead() {
  uif_dead_ = true;
  uif_failovers_++;
  if (m_uif_failovers_) m_uif_failovers_->Inc();
  HandleUifDead(/*dead=*/true, nvme::MakeStatus(nvme::kSctGeneric,
                                                nvme::kScInternalError));
}

void VirtualController::HandleUifDead(bool dead, NvmeStatus fail_status) {
  for (auto& shp : shards_) {
    RouterShard& sh = *shp;
    for (u32 s = 0; s < sh.slab_size(); s++) {
      RequestEntry* e = sh.EntryAt(s);
      if (!e->in_use || e->pending[kPathN] == 0) continue;
      u8 n = e->pending[kPathN];
      e->pending[kPathN] = 0;
      e->outstanding -= n;
      if (notify_inflight_ >= n) {
        notify_inflight_ -= n;
      } else {
        notify_inflight_ = 0;
      }
      // Each abandoned leg settles its send: timed out for a dead UIF,
      // administratively aborted for a detach.
      obs::Counter* settle =
          dead ? m_path_timeouts_[kPathN] : m_aborts_[kPathN];
      if (settle) settle->Inc(n);
      u32 bit = 1u << kPathN;
      e->hook_flags &= ~bit;
      e->will_flags &= ~bit;
      if (e->completed) {
        MaybeFree(e);
        continue;
      }
      Stamp(e, obs::SpanKind::kUifFailover, 0, n);
      if (dead && costs_->uif_failover_to_kernel && kernel_dev_ &&
          KernelEligible(*e)) {
        DispatchKernel(e);
        continue;
      }
      if (e->outstanding > 0) {
        // Other legs will finish the request; just make sure it no longer
        // waits for a hook that can never fire.
        if (e->wait_for_hook && e->hook_flags == 0) e->wait_for_hook = false;
        continue;
      }
      FailRequest(e, fail_status);
    }
  }
}

// --- Multi-tenant QoS (DESIGN.md §12) -----------------------------------------

void VirtualController::AttachQos(qos::QosScheduler* qos, u32 tenant_id) {
  // Release any head reservation held with the outgoing scheduler.
  if (qos_ && qos_waiting() > 0) qos_->SetParkedHead(qos_tenant_, 0, 0);
  qos_ = qos;
  qos_tenant_ = tenant_id;
  for (auto& sh : shards_) {
    sh->qos_ring.clear();
    sh->qos_head = sh->qos_count = 0;
    if (sh->qos_resume_armed) {
      sim_->Cancel(sh->qos_resume_ev);
      sh->qos_resume_armed = false;
    }
  }
  if (!qos_) {
    ovl_ = nullptr;  // overload control layers on the QoS gate
    return;
  }
  u32 cap = qos_->max_deferred(tenant_id);
  for (auto& sh : shards_) {
    sh->qos_ring.assign(cap ? cap : 1, RouterShard::Waiter{});
  }
  if (obs_) m_qos_waiting_ = obs_->metrics().GetGauge("qos.waiting");
}

void VirtualController::AttachOverload(overload::OverloadController* ovl) {
  ovl_ = qos_ ? ovl : nullptr;
}

void VirtualController::SyncParkedHead() {
  // One reservation per tenant: report the oldest parked head across
  // shards (with one queue pair this is exactly the pre-shard single
  // ring's head).
  const RouterShard::Waiter* oldest = nullptr;
  for (const auto& sh : shards_) {
    if (sh->qos_count == 0) continue;
    const RouterShard::Waiter& w = sh->qos_ring[sh->qos_head];
    if (!oldest || w.parked_at < oldest->parked_at) oldest = &w;
  }
  if (oldest) {
    qos_->SetParkedHead(qos_tenant_, oldest->cost, oldest->parked_at);
  } else {
    qos_->SetParkedHead(qos_tenant_, 0, 0);
  }
}

u32 VirtualController::QosTokenCost(const RequestEntry& e) {
  if (!e.sqe.is_io_data_cmd()) return 1;
  u64 bytes = static_cast<u64>(e.mediated_nlb) * kLbaSize;
  u32 pages = static_cast<u32>((bytes + 4095) / 4096);
  return pages ? pages : 1;
}

void VirtualController::QosParkOrShed(RequestEntry* e, u32 cost) {
  RouterShard& sh = *shards_[e->gq_index];
  if (sh.qos_count >= sh.qos_ring.size()) {
    QosShed(e);
    return;
  }
  usize idx = (sh.qos_head + sh.qos_count) % sh.qos_ring.size();
  sh.qos_ring[idx] = RouterShard::Waiter{e->tag, cost, sim_->now()};
  sh.qos_count++;
  sh.stats.qos_deferred++;
  qos_->NoteDeferred(qos_tenant_);
  if (sh.qos_count == 1) SyncParkedHead();
  if (ovl_) ovl_->NoteBacklog(static_cast<i64>(cost));
  if (m_qos_waiting_) m_qos_waiting_->Add(1);
}

void VirtualController::OverloadShed(RequestEntry* e) {
  shards_[e->gq_index]->stats.ovl_shed++;
  Stamp(e, obs::SpanKind::kOverloadShed);
  // Same retryable busy status as a QoS shed: back off and try again is
  // exactly the reaction load shedding asks of the guest.
  FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScNamespaceNotReady));
}

void VirtualController::QosShed(RequestEntry* e) {
  shards_[e->gq_index]->stats.qos_shed++;
  qos_->NoteShed(qos_tenant_);
  Stamp(e, obs::SpanKind::kQosShed);
  // Busy-ish transient status: the guest driver's natural reaction is to
  // back off and retry, which is exactly what load shedding asks for.
  FailRequest(e, nvme::MakeStatus(nvme::kSctGeneric,
                                  nvme::kScNamespaceNotReady));
}

void VirtualController::ArmQosResume(RouterShard& sh, SimTime at) {
  if (at <= sim_->now()) at = sim_->now() + 1;
  if (sh.qos_resume_armed && sh.qos_resume_at <= at) return;
  if (sh.qos_resume_armed) sim_->Cancel(sh.qos_resume_ev);
  sh.qos_resume_armed = true;
  sh.qos_resume_at = at;
  u32 idx = sh.index();
  sh.qos_resume_ev = sim_->ScheduleAt(at, [this, idx] { QosResume(idx); });
}

void VirtualController::QosResume(u32 shard_index) {
  RouterShard& sh = *shards_[shard_index];
  sh.qos_resume_armed = false;
  Touch();
  while (sh.qos_count > 0) {
    const RouterShard::Waiter w = sh.qos_ring[sh.qos_head];
    RequestEntry* e = EntryByTag(w.tag);
    if (!e || e->completed) {
      // Timed out (OnDeadline) while parked; the slot may already be
      // recycled. Drop the stale waiter.
      sh.qos_head = (sh.qos_head + 1) % sh.qos_ring.size();
      sh.qos_count--;
      SyncParkedHead();
      if (ovl_) ovl_->NoteBacklog(-static_cast<i64>(w.cost));
      if (m_qos_waiting_) m_qos_waiting_->Add(-1);
      continue;
    }
    // Overload gate first (DESIGN.md §13): a Shed state drains parked
    // best-effort work instead of serializing the backlog behind it.
    if (ovl_) {
      overload::Verdict v = ovl_->Admit(qos_tenant_, w.cost, sim_->now());
      if (v.action == overload::Verdict::Action::kShed) {
        sh.qos_head = (sh.qos_head + 1) % sh.qos_ring.size();
        sh.qos_count--;
        SyncParkedHead();
        ovl_->NoteBacklog(-static_cast<i64>(w.cost));
        if (m_qos_waiting_) m_qos_waiting_->Add(-1);
        OverloadShed(e);
        continue;
      }
      if (v.action == overload::Verdict::Action::kDefer) {
        ArmQosResume(sh, v.retry_at);
        return;
      }
    }
    qos::AdmitResult r = qos_->Admit(qos_tenant_, w.cost, sim_->now());
    if (r.action == qos::AdmitResult::Action::kDefer) {
      if (ovl_) ovl_->Refund(qos_tenant_, w.cost);
      ArmQosResume(sh, r.retry_at);
      return;
    }
    sh.qos_head = (sh.qos_head + 1) % sh.qos_ring.size();
    sh.qos_count--;
    SyncParkedHead();
    worker_->cpu()->Charge(costs_->qos_admit_ns);
    SimTime waited = sim_->now() - w.parked_at;
    if (ovl_) {
      ovl_->NoteBacklog(-static_cast<i64>(w.cost));
      ovl_->NoteQueueWait(waited);
    }
    if (m_qos_waiting_) m_qos_waiting_->Add(-1);
    qos_->NoteWait(qos_tenant_, waited);
    Stamp(e, obs::SpanKind::kQosAdmit, 0, waited);
    StartRequest(e);
  }
}

bool VirtualController::KernelEligible(const RequestEntry& e) {
  switch (e.sqe.opcode) {
    case nvme::kCmdRead:
    case nvme::kCmdWrite:
    case nvme::kCmdFlush:
      return true;
    default:
      return false;
  }
}

// --- RouterWorker --------------------------------------------------------------

RouterWorker::RouterWorker(sim::Simulator* sim, std::string name,
                           RouterCosts costs, obs::Observability* obs)
    : sim_(sim),
      cpu_(sim, name),
      poller_(sim, &cpu_, [&costs, &name, obs] {
        sim::Poller::Options o;
        o.dispatch_cost = costs.dispatch_cost_ns;
        o.adaptive = true;
        o.idle_timeout = costs.worker_idle_timeout_ns;
        o.wakeup_latency = costs.worker_wakeup_latency_ns;
        o.obs = obs;
        o.metrics_name = name;
        return o;
      }()) {}

void RouterWorker::Attach(VirtualController* vc) {
  vc->worker_ = this;
  vc->src_vsq_ = poller_.AddSource([vc] { vc->PollVsq(0); });
  vc->src_hcq_ = poller_.AddSource([vc] { vc->PollHcq(); });
  vc->src_ncq_ = poller_.AddSource([vc] { vc->PollNcq(); });
  vc->src_kcq_ = poller_.AddSource([vc] { vc->PollKcq(); });
  vcs_.push_back(vc);
}

// --- NvmetroHost -----------------------------------------------------------------

NvmetroHost::NvmetroHost(sim::Simulator* sim, ssd::SimulatedController* phys,
                         Config cfg)
    : sim_(sim), phys_(phys), cfg_(cfg) {
  for (u32 i = 0; i < cfg_.num_workers; i++) {
    workers_.push_back(std::make_unique<RouterWorker>(
        sim_, "nvmetro.router" + std::to_string(i), cfg_.costs, cfg_.obs));
  }
}

VirtualController* NvmetroHost::CreateController(virt::Vm* vm,
                                                 VirtualController::Config cfg) {
  auto vc = std::make_unique<VirtualController>(sim_, phys_, vm, cfg,
                                                &cfg_.costs, cfg_.obs);
  VirtualController* ptr = vc.get();
  if (cfg_.flight_triggers) ptr->AttachFlightTriggers(cfg_.flight_triggers);
  workers_[next_worker_ % workers_.size()]->Attach(ptr);
  next_worker_++;
  controllers_.push_back(std::move(vc));
  return ptr;
}

void NvmetroHost::Start() {
  for (auto& w : workers_) w->Start();
}

u64 NvmetroHost::RouterCpuBusyNs() const {
  u64 sum = 0;
  for (const auto& w : workers_) sum += w->busy_ns();
  return sum;
}

}  // namespace nvmetro::core
