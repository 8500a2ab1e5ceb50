// Validation of an AcceleratorConfig against device limits: catches
// configurations whose on-chip structures (row cache, Node2Vec buffer,
// FIFOs) or total resource estimate cannot fit the target FPGA before a
// simulation is run with them.

#ifndef LIGHTRW_LIGHTRW_CONFIG_VALIDATION_H_
#define LIGHTRW_LIGHTRW_CONFIG_VALIDATION_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "lightrw/config.h"
#include "lightrw/platform_models.h"

namespace lightrw::core {

// Checks the WRS sampler's lane count k: a nonzero power of two (the
// prefix-sum and comparator trees are binary) of at most 64 (ThundeRiNG's
// validated stream count). `field` names the setting in the message. Every
// engine's config validation applies this one rule.
Status ValidateSamplerParallelism(uint32_t k, std::string_view field);

// Checks structural invariants (power-of-two cache, nonzero lanes and
// burst lengths) and that the modeled resource usage of the configuration
// fits `device`. `needs_prev_neighbors` selects the Node2Vec-style build.
Status ValidateConfig(const AcceleratorConfig& config,
                      bool needs_prev_neighbors,
                      const DeviceResources& device = DeviceResources{});

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_CONFIG_VALIDATION_H_
