#include "baselines/factory.h"

#include "common/rng.h"
#include "fault/fault.h"
#include "functions/classifiers.h"

namespace nvmetro::baselines {

const char* SolutionKindName(SolutionKind kind) {
  switch (kind) {
    case SolutionKind::kNvmetro: return "NVMetro";
    case SolutionKind::kMdev: return "MDev";
    case SolutionKind::kPassthrough: return "Passthrough";
    case SolutionKind::kVhostScsi: return "Vhost";
    case SolutionKind::kQemu: return "QEMU";
    case SolutionKind::kSpdk: return "SPDK";
    case SolutionKind::kNvmetroEncryption: return "NVMetro-Encr";
    case SolutionKind::kNvmetroSgx: return "NVMetro-SGX";
    case SolutionKind::kDmCrypt: return "dm-crypt";
    case SolutionKind::kNvmetroReplication: return "NVMetro-Repl";
    case SolutionKind::kDmMirror: return "dm-mirror";
  }
  return "?";
}

SolutionBundle::~SolutionBundle() = default;

namespace {
bool IsNvmetroFamily(SolutionKind k) {
  switch (k) {
    case SolutionKind::kNvmetro:
    case SolutionKind::kMdev:
    case SolutionKind::kNvmetroEncryption:
    case SolutionKind::kNvmetroSgx:
    case SolutionKind::kNvmetroReplication:
      return true;
    default:
      return false;
  }
}

std::unique_ptr<virt::Vm> MakeVm(Testbed* tb, const SolutionParams& p,
                                 u32 idx) {
  virt::VmConfig cfg = p.vm_cfg;
  cfg.name = p.vm_cfg.name + std::to_string(idx);
  return std::make_unique<virt::Vm>(&tb->sim, cfg);
}
}  // namespace

std::unique_ptr<SolutionBundle> SolutionBundle::Create(Testbed* tb,
                                                       SolutionKind kind,
                                                       SolutionParams params) {
  auto bundle = std::unique_ptr<SolutionBundle>(new SolutionBundle());
  SolutionBundle& b = *bundle;
  b.kind_ = kind;
  b.tb_ = tb;
  b.xts_key_ = params.xts_key;
  if (b.xts_key_.empty()) {
    b.xts_key_.resize(64);
    Rng rng(params.seed * 7919 + 13);
    rng.Fill(b.xts_key_.data(), b.xts_key_.size());
  }
  const u64 ns_lbas = tb->phys->ns_block_count(1);
  const u64 part_lbas = ns_lbas / std::max<u32>(1, params.num_vms);

  if (params.fault) tb->phys->SetFaultInjector(params.fault);

  if (IsNvmetroFamily(kind)) {
    core::NvmetroHost::Config host_cfg;
    host_cfg.num_workers = params.router_workers;
    host_cfg.costs = params.router_costs;
    host_cfg.obs = params.obs;
    b.nvmetro_host_ =
        std::make_unique<core::NvmetroHost>(&tb->sim, tb->phys.get(),
                                            host_cfg);
    auto* host = b.nvmetro_host_.get();
    b.host_cpu_fns_.push_back([host] { return host->RouterCpuBusyNs(); });

    // Function-specific shared infrastructure.
    const bool encryption = kind == SolutionKind::kNvmetroEncryption ||
                            kind == SolutionKind::kNvmetroSgx;
    const bool replication = kind == SolutionKind::kNvmetroReplication;
    if (encryption || replication) {
      uif::UifHostParams uif_params;
      uif_params.threads = kind == SolutionKind::kNvmetroSgx ? 1 : 2;
      uif_params.max_batch = params.uif_max_batch;
      uif_params.obs = params.obs;
      b.uif_host_ = std::make_unique<uif::UifHost>(&tb->sim, "uif",
                                                   uif_params);
      auto* uh = b.uif_host_.get();
      b.host_cpu_fns_.push_back([uh] { return uh->TotalCpuBusyNs(); });
    }
    if (encryption || replication) {
      // Encryption UIFs submit ciphertext here; replication stacks use it
      // as the router's kernel path (UIF failover) and as the resync
      // source for degraded replicas.
      b.kernel_dev_ = std::make_unique<kblock::NvmeBlockDevice>(
          &tb->sim, tb->phys.get(), &tb->dma, 1);
    }

    for (u32 i = 0; i < params.num_vms; i++) {
      auto vm = MakeVm(tb, params, i);
      virt::Vm* vm_ptr = vm.get();
      core::VirtualController::Config vc_cfg;
      vc_cfg.vm_id = i + 1;
      vc_cfg.part_first_lba = i * part_lbas;
      vc_cfg.part_nlb = part_lbas;
      auto* vc = host->CreateController(vm_ptr, vc_cfg);
      b.vcs_.push_back(vc);

      if (kind == SolutionKind::kMdev) {
        vc->SetFixedTranslationMode(true);
      } else {
        Result<ebpf::Program> prog =
            encryption   ? functions::EncryptorClassifier()
            : replication ? functions::ReplicatorClassifier()
                          : functions::PassthroughClassifier();
        if (!prog.ok()) return nullptr;
        if (!vc->InstallClassifier(std::move(*prog)).ok()) return nullptr;
      }

      if (b.kernel_dev_) vc->AttachKernelDevice(b.kernel_dev_.get());

      if (encryption) {
        auto channel = std::make_unique<core::NotifyChannel>();
        vc->AttachUif(channel.get());
        std::unique_ptr<uif::UifBase> impl;
        if (kind == SolutionKind::kNvmetroSgx) {
          auto enc = functions::SgxEncryptorUif::Create(
              &tb->sim, b.kernel_dev_.get(), b.xts_key_.data(),
              b.xts_key_.size());
          if (!enc.ok()) return nullptr;
          auto* sgx_uif = enc->get();
          b.uif_host_->AddFunction(channel.get(), vm_ptr, sgx_uif);
          sgx_uif->StartSwitchlessWorker();
          auto* sl_cpu = sgx_uif->switchless_cpu();
          b.host_cpu_fns_.push_back([sl_cpu] { return sl_cpu->busy_ns(); });
          impl = std::move(*enc);
        } else {
          auto enc = functions::EncryptorUif::Create(
              b.kernel_dev_.get(), b.xts_key_.data(), b.xts_key_.size());
          if (!enc.ok()) return nullptr;
          b.uif_host_->AddFunction(channel.get(), vm_ptr, enc->get());
          impl = std::move(*enc);
        }
        b.channels_.push_back(std::move(channel));
        b.uifs_.push_back(std::move(impl));
      } else if (replication) {
        // Per-VM secondary drive on a remote host over NVMe-oF.
        auto sdma = std::make_unique<mem::IommuSpace>(nullptr, 1ull << 40);
        ssd::ControllerConfig scfg;
        scfg.capacity = part_lbas * 512;
        scfg.seed = params.seed + 100 + i;
        scfg.obs = params.obs;
        auto sctrl = std::make_unique<ssd::SimulatedController>(
            &tb->sim, sdma.get(), scfg);
        auto sdev = std::make_unique<kblock::NvmeBlockDevice>(
            &tb->sim, sctrl.get(), sdma.get(), 1);
        auto remote = std::make_unique<kblock::RemoteBlockDevice>(
            &tb->sim, sdev.get());
        auto channel = std::make_unique<core::NotifyChannel>();
        vc->AttachUif(channel.get());
        auto repl = std::make_unique<functions::ReplicatorUif>(remote.get());
        repl->AttachPrimary(b.kernel_dev_.get());
        b.uif_host_->AddFunction(channel.get(), vm_ptr, repl.get());
        if (params.fault) {
          // Order matters: the transport must flip before the replicator
          // hears about a heal, so resync submissions find the link up.
          params.fault->OnLinkChange([r = remote.get()](bool down) {
            r->SetLinkDown(down);
          });
          params.fault->OnLinkChange([u = repl.get()](bool down) {
            u->OnLinkChange(down);
          });
        }
        b.secondary_dmas_.push_back(std::move(sdma));
        b.secondary_ctrls_.push_back(std::move(sctrl));
        b.secondary_devs_.push_back(std::move(sdev));
        b.remote_devs_.push_back(std::move(remote));
        b.channels_.push_back(std::move(channel));
        b.uifs_.push_back(std::move(repl));
      }

      auto sol = std::make_unique<NvmeDriverSolution>(
          tb, std::move(vm), vc, SolutionKindName(kind),
          params.guest_queues);
      if (!sol->Init().ok()) return nullptr;
      b.owned_solutions_.push_back(std::move(sol));
    }
    if (params.fault) {
      for (auto& ch : b.channels_) {
        params.fault->OnUifWedgeChange(
            [c = ch.get()](bool wedged) { c->SetWedged(wedged); });
      }
    }
    host->Start();
    if (b.uif_host_) b.uif_host_->Start();
  } else if (kind == SolutionKind::kPassthrough) {
    for (u32 i = 0; i < params.num_vms; i++) {
      auto vm = MakeVm(tb, params, i);
      virt::Vm* vm_ptr = vm.get();
      b.irq_cpus_.push_back(std::make_unique<sim::VCpu>(
          &tb->sim, "host.irq" + std::to_string(i)));
      auto* irq_cpu = b.irq_cpus_.back().get();
      b.host_cpu_fns_.push_back([irq_cpu] { return irq_cpu->busy_ns(); });
      b.pt_backends_.push_back(std::make_unique<PassthroughBackend>(
          tb, vm_ptr, irq_cpu));
      auto sol = std::make_unique<NvmeDriverSolution>(
          tb, std::move(vm), b.pt_backends_.back().get(),
          SolutionKindName(kind), params.guest_queues);
      if (!sol->Init().ok()) return nullptr;
      b.owned_solutions_.push_back(std::move(sol));
    }
  } else {
    // virtio family: vhost-scsi (+dm variants), QEMU, SPDK.
    for (u32 i = 0; i < params.num_vms; i++) {
      auto vm = MakeVm(tb, params, i);
      virt::Vm* vm_ptr = vm.get();
      VirtioBackend* backend = nullptr;
      u64 capacity = 0;

      switch (kind) {
        case SolutionKind::kVhostScsi:
        case SolutionKind::kDmCrypt:
        case SolutionKind::kDmMirror: {
          b.lower_devs_.push_back(std::make_unique<kblock::NvmeBlockDevice>(
              &tb->sim, tb->phys.get(), &tb->dma, 1));
          kblock::BlockDevice* dev = b.lower_devs_.back().get();
          // The vhost worker kthread is also the submitting context for
          // the dm layer, so its per-bio work lands there.
          b.host_workers_.push_back(std::make_unique<sim::VCpu>(
              &tb->sim, "vhost" + std::to_string(i)));
          sim::VCpu* vhost_worker = b.host_workers_.back().get();
          b.host_cpu_fns_.push_back(
              [vhost_worker] { return vhost_worker->busy_ns(); });
          if (kind == SolutionKind::kDmCrypt) {
            // kcryptd queues work on the submitting CPU; the single vhost
            // worker therefore funnels all crypto through ONE kcryptd —
            // the serialization behind the paper's 3.2-3.7x gap at high
            // parallelism.
            std::vector<sim::VCpu*> workers;
            for (int w = 0; w < 1; w++) {
              b.host_workers_.push_back(std::make_unique<sim::VCpu>(
                  &tb->sim, "kcryptd" + std::to_string(w)));
              workers.push_back(b.host_workers_.back().get());
              auto* wc = workers.back();
              b.host_cpu_fns_.push_back([wc] { return wc->busy_ns(); });
            }
            auto crypt = kblock::DmCrypt::Create(
                &tb->sim, dev, b.xts_key_.data(), b.xts_key_.size(),
                workers);
            if (!crypt.ok()) return nullptr;
            (*crypt)->SetObservability(params.obs);
            b.dm_devs_.push_back(std::move(*crypt));
            dev = b.dm_devs_.back().get();
          } else if (kind == SolutionKind::kDmMirror) {
            auto sdma = std::make_unique<mem::IommuSpace>(nullptr,
                                                          1ull << 40);
            ssd::ControllerConfig scfg;
            scfg.capacity = tb->phys->config().capacity;
            scfg.seed = params.seed + 200 + i;
            scfg.obs = params.obs;
            auto sctrl = std::make_unique<ssd::SimulatedController>(
                &tb->sim, sdma.get(), scfg);
            auto sdev = std::make_unique<kblock::NvmeBlockDevice>(
                &tb->sim, sctrl.get(), sdma.get(), 1);
            auto remote = std::make_unique<kblock::RemoteBlockDevice>(
                &tb->sim, sdev.get());
            // The mirror layer's work runs in the submitting (vhost)
            // context; the worker is created below and patched in.
            auto mirror = std::make_unique<kblock::DmMirror>(
                dev, remote.get(), /*read_balance=*/true, vhost_worker);
            mirror->SetObservability(params.obs);
            b.dm_devs_.push_back(std::move(mirror));
            b.secondary_dmas_.push_back(std::move(sdma));
            b.secondary_ctrls_.push_back(std::move(sctrl));
            b.secondary_devs_.push_back(std::move(sdev));
            b.remote_devs_.push_back(std::move(remote));
            dev = b.dm_devs_.back().get();
          }
          b.vhost_backends_.push_back(
              std::make_unique<kblock::VhostScsiBackend>(&tb->sim,
                                                         vhost_worker, dev));
          b.vhost_adapters_.push_back(std::make_unique<VhostScsiAdapter>(
              b.vhost_backends_.back().get(), vm_ptr));
          backend = b.vhost_adapters_.back().get();
          capacity = dev->capacity_sectors() * 512;
          break;
        }
        case SolutionKind::kQemu: {
          b.lower_devs_.push_back(std::make_unique<kblock::NvmeBlockDevice>(
              &tb->sim, tb->phys.get(), &tb->dma, 1));
          b.qemu_.push_back(std::make_unique<QemuBackend>(
              tb, vm_ptr, b.lower_devs_.back().get()));
          auto* q = b.qemu_.back().get();
          b.host_cpu_fns_.push_back([q] { return q->HostCpuNs(); });
          backend = q;
          capacity = b.lower_devs_.back()->capacity_sectors() * 512;
          break;
        }
        case SolutionKind::kSpdk: {
          b.spdk_.push_back(std::make_unique<SpdkBackend>(tb, vm_ptr));
          auto* s = b.spdk_.back().get();
          s->Start();
          b.host_cpu_fns_.push_back([s] { return s->HostCpuNs(); });
          backend = s;
          capacity = tb->phys->ns_block_count(1) * 512;
          break;
        }
        default:
          return nullptr;
      }
      b.owned_solutions_.push_back(std::make_unique<VirtioSolution>(
          tb, std::move(vm), backend, SolutionKindName(kind), capacity));
    }
  }

  for (auto& s : b.owned_solutions_) {
    // Host-agent CPU is accounted at bundle level (agents are shared
    // between this bundle's VMs); each solution reports the bundle sum.
    s->SetHostCpuFn([bp = bundle.get()] { return bp->HostAgentCpuNs(); });
    b.solutions_.push_back(s.get());
  }
  return bundle;
}

u64 SolutionBundle::HostAgentCpuNs() const {
  u64 sum = 0;
  for (const auto& fn : host_cpu_fns_) sum += fn();
  return sum;
}

}  // namespace nvmetro::baselines
