#include "common/cpu_features.h"

namespace lightrw {

bool HostHasAvx512Kernel() {
#ifdef LIGHTRW_AVX512_KERNELS
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace lightrw
