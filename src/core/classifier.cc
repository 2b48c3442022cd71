#include "core/classifier.h"

namespace nvmetro::core {

const ebpf::CtxDescriptor& NvmetroCtxDescriptor() {
  static const ebpf::CtxDescriptor* kDesc = [] {
    auto* d = new ebpf::CtxDescriptor();
    d->size = sizeof(ClassifierCtx);
    d->fields = {
        {offsetof(ClassifierCtx, current_hook), 8, false, "current_hook"},
        {offsetof(ClassifierCtx, opcode), 8, false, "opcode"},
        {offsetof(ClassifierCtx, nsid), 8, false, "nsid"},
        {offsetof(ClassifierCtx, slba), 8, true, "slba"},
        {offsetof(ClassifierCtx, nlb), 8, true, "nlb"},
        {offsetof(ClassifierCtx, error), 8, false, "error"},
        {offsetof(ClassifierCtx, state), 8, true, "state"},
        {offsetof(ClassifierCtx, vm_id), 8, false, "vm_id"},
        {offsetof(ClassifierCtx, part_offset), 8, false, "part_offset"},
        {offsetof(ClassifierCtx, part_limit), 8, false, "part_limit"},
        {offsetof(ClassifierCtx, cmd_arg), 8, false, "cmd_arg"},
        {offsetof(ClassifierCtx, data), 8, false, "data"},
        {offsetof(ClassifierCtx, data_len), 8, false, "data_len"},
        {offsetof(ClassifierCtx, chain_depth), 8, false, "chain_depth"},
        // Narrow (4-byte) views, handy for 32-bit loads of opcode/hook.
        {offsetof(ClassifierCtx, current_hook), 4, false, "current_hook32"},
        {offsetof(ClassifierCtx, opcode), 4, false, "opcode32"},
        {offsetof(ClassifierCtx, error), 4, false, "error32"},
    };
    // Loading `data` yields a verifier-typed null-or-data pointer; after
    // the null check the program may read (never write) the attached
    // page.
    d->data_ptr_offset = offsetof(ClassifierCtx, data);
    d->data_region_size = kClassifierDataRegionSize;
    return d;
  }();
  return *kDesc;
}

Result<std::unique_ptr<ClassifierRuntime>> ClassifierRuntime::Create(
    ebpf::Program prog) {
  ebpf::Verifier verifier(NvmetroCtxDescriptor(),
                          ebpf::HelperRegistry::Default());
  NVM_RETURN_IF_ERROR(verifier.Verify(prog));
  return std::unique_ptr<ClassifierRuntime>(new ClassifierRuntime(prog));
}

ClassifierRuntime::RunResult ClassifierRuntime::Run(ClassifierCtx* ctx) {
  invocations_++;
  ebpf::RunParams params;
  params.ctx = ctx;
  params.ctx_size = sizeof(*ctx);
  params.ctx_desc = &NvmetroCtxDescriptor();
  params.data = reinterpret_cast<const void*>(ctx->data);
  params.data_len = static_cast<u32>(ctx->data_len);
  auto r = dvm_.Run(decoded_, params);
  RunResult out;
  out.status = r.status;
  out.verdict = r.r0;
  out.cpu_cost = ClassifierCost(r.insns);
  return out;
}

}  // namespace nvmetro::core
