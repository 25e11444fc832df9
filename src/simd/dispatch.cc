// Runtime tier selection. Detection runs once on first use (or on SetIsa):
// x86 tiers are gated by __builtin_cpu_supports, NEON by compiling for
// aarch64 at all. SMPX_FORCE_ISA pins a tier by name; forcing a tier the
// host lacks falls back to the best available at or below it, so a single
// CI matrix entry works across heterogeneous runners.

#include "simd/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

namespace smpx::simd {

namespace detail {

std::atomic<const Kernels*> g_active{nullptr};

namespace {

const Kernels* TierOrNull(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &ScalarKernels();
    case Isa::kSwar:
      return &SwarKernels();
#if defined(SMPX_SIMD_X86)
    case Isa::kSse2:
      return __builtin_cpu_supports("sse2") ? &Sse2Kernels() : nullptr;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") ? &Avx2Kernels() : nullptr;
#endif
#if defined(SMPX_SIMD_NEON)
    case Isa::kNeon:
      return &NeonKernels();
#endif
    default:
      return nullptr;
  }
}

/// Best available tier at or below `want` (kSwar is always available, so
/// this never falls through to scalar unless scalar itself was requested).
const Kernels* BestAtOrBelow(Isa want) {
  for (int i = static_cast<int>(want); i > 0; --i) {
    if (const Kernels* k = TierOrNull(static_cast<Isa>(i))) return k;
  }
  return &ScalarKernels();
}

Isa BestIsa() {
#if defined(SMPX_SIMD_NEON)
  return Isa::kNeon;
#else
  return Isa::kAvx2;
#endif
}

}  // namespace

const Kernels& Init() {
  Isa want = BestIsa();
  if (const char* force = std::getenv("SMPX_FORCE_ISA")) {
    Isa forced;
    if (!ParseIsa(force, &forced)) {
      // A typo'd tier name silently falling back to best-available would
      // invalidate every differential CI run that relies on the pin; fail
      // loudly instead.
      std::fprintf(stderr,
                   "smpx: unrecognized SMPX_FORCE_ISA value \"%s\" "
                   "(expected scalar|swar|sse2|avx2|neon)\n",
                   force);
      std::abort();
    }
    want = forced;
  }
  const Kernels* k = BestAtOrBelow(want);
  g_active.store(k, std::memory_order_relaxed);
  return *k;
}

}  // namespace detail

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSwar:
      return "swar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool ParseIsa(std::string_view name, Isa* out) {
  for (Isa isa : {Isa::kScalar, Isa::kSwar, Isa::kSse2, Isa::kAvx2,
                  Isa::kNeon}) {
    if (name == IsaName(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

bool IsaAvailable(Isa isa) { return detail::TierOrNull(isa) != nullptr; }

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kSwar, Isa::kSse2, Isa::kAvx2,
                  Isa::kNeon}) {
    if (IsaAvailable(isa)) out.push_back(isa);
  }
  return out;
}

Isa SetIsa(Isa isa) {
  const Kernels* k = detail::BestAtOrBelow(isa);
  detail::g_active.store(k, std::memory_order_relaxed);
  return k->isa;
}

}  // namespace smpx::simd
