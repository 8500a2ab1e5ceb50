#include "lightrw/config_validation.h"

#include <string>

#include "common/bits.h"
#include "common/sim_thread_pool.h"
#include "hwsim/validation.h"
#include "reliability/fault_injector.h"

namespace lightrw::core {

Status ValidateSamplerParallelism(uint32_t k, std::string_view field) {
  if (!IsPowerOfTwo(k)) {
    return InvalidArgumentError(
        std::string(field) +
        " must be a nonzero power of two (prefix-sum and comparator trees "
        "are binary)");
  }
  if (k > 64) {
    return InvalidArgumentError(
        std::string(field) +
        " above 64 exceeds ThundeRiNG's validated stream count");
  }
  return Status::Ok();
}

Status ValidateConfig(const AcceleratorConfig& config,
                      bool needs_prev_neighbors,
                      const DeviceResources& device) {
  LIGHTRW_RETURN_IF_ERROR(ValidateSamplerParallelism(
      config.sampler_parallelism, "sampler_parallelism"));
  if (config.cache_kind != CacheKind::kNone &&
      (config.cache_entries == 0 || !IsPowerOfTwo(config.cache_entries))) {
    return InvalidArgumentError(
        "cache_entries must be a nonzero power of two for direct set "
        "indexing");
  }
  if (config.burst.short_beats == 0) {
    return InvalidArgumentError("burst.short_beats must be >= 1");
  }
  if (config.burst.long_beats != 0 &&
      config.burst.long_beats <= config.burst.short_beats) {
    return InvalidArgumentError(
        "burst.long_beats must exceed short_beats (or be 0 to disable the "
        "long pipeline)");
  }
  if (config.num_instances == 0) {
    return InvalidArgumentError("num_instances must be >= 1");
  }
  if (config.num_instances > 4) {
    return InvalidArgumentError(
        "the modeled U250 platform has 4 DRAM channels; num_instances "
        "must be <= 4");
  }
  if (config.inflight_queries == 0) {
    return InvalidArgumentError("inflight_queries must be >= 1");
  }
  if (config.num_threads > SimThreadPool::kMaxThreads) {
    return InvalidArgumentError(
        "num_threads must be <= " +
        std::to_string(SimThreadPool::kMaxThreads) + " (0 = default)");
  }
  LIGHTRW_RETURN_IF_ERROR(hwsim::ValidateDramConfig(config.dram));
  LIGHTRW_RETURN_IF_ERROR(reliability::ValidateFaultConfig(config.faults));

  // Resource fit on the modeled device.
  ResourceModel model(device);
  const ResourceUsage usage =
      model.TotalUsage(config, needs_prev_neighbors);
  const auto check = [](uint64_t used, uint64_t avail, const char* what) {
    return used <= avail
               ? Status::Ok()
               : InternalError(std::string("modeled design does not fit: ") +
                               what + " " + std::to_string(used) + " > " +
                               std::to_string(avail));
  };
  LIGHTRW_RETURN_IF_ERROR(check(usage.luts, device.luts, "LUTs"));
  LIGHTRW_RETURN_IF_ERROR(check(usage.regs, device.regs, "REGs"));
  LIGHTRW_RETURN_IF_ERROR(check(usage.brams, device.brams, "BRAMs"));
  LIGHTRW_RETURN_IF_ERROR(check(usage.dsps, device.dsps, "DSPs"));
  return Status::Ok();
}

}  // namespace lightrw::core
