// Internal: per-tier kernel table accessors for the dispatcher. Each tier
// lives in its own translation unit so CMake can compile it with the
// matching -m<isa> flags; tiers that do not exist for the host architecture
// are simply not compiled (and not declared here).

#ifndef SMPX_SIMD_KERNELS_H_
#define SMPX_SIMD_KERNELS_H_

#include "simd/simd.h"

namespace smpx::simd::detail {

const Kernels& ScalarKernels();
const Kernels& SwarKernels();

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#define SMPX_SIMD_X86 1
const Kernels& Sse2Kernels();
const Kernels& Avx2Kernels();
#endif

#if defined(__aarch64__) || defined(_M_ARM64)
#define SMPX_SIMD_NEON 1
const Kernels& NeonKernels();
#endif

}  // namespace smpx::simd::detail

#endif  // SMPX_SIMD_KERNELS_H_
