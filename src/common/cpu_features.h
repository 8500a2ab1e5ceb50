// Host CPU feature probe shared by the SIMD kernels: the PWRS sampler's
// stream kernel (sampling/parallel_wrs.cc) and Node2Vec's block merge
// (apps/walk_app.cc). Both are compiled with LIGHTRW_AVX512_TARGET and
// dispatched at run time on HostHasAvx512Kernel(), so one binary runs on
// hosts with and without AVX-512.

#ifndef LIGHTRW_COMMON_CPU_FEATURES_H_
#define LIGHTRW_COMMON_CPU_FEATURES_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// Defined when this compiler can build the AVX-512 kernels.
#define LIGHTRW_AVX512_KERNELS 1
#define LIGHTRW_AVX512_TARGET \
  __attribute__((target("avx512f,avx512dq,avx512vl")))
#endif

namespace lightrw {

// True when the kernels are compiled in and the host CPU has AVX-512F,
// DQ and VL, the feature set of LIGHTRW_AVX512_TARGET. Probed once.
bool HostHasAvx512Kernel();

}  // namespace lightrw

#endif  // LIGHTRW_COMMON_CPU_FEATURES_H_
