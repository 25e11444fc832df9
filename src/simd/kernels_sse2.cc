// SSE2 tier (x86-64 baseline): 16-byte vector classification; four vector
// compares cover a 64-byte block.

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)

#include <emmintrin.h>

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

inline uint64_t MoveMask16(__m128i eq) {
  return static_cast<uint64_t>(static_cast<uint32_t>(_mm_movemask_epi8(eq)));
}

uint64_t Eq64Sse2(const unsigned char* p, unsigned char c) {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(c));
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    __m128i block = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v));
    mask |= MoveMask16(_mm_cmpeq_epi8(block, needle)) << (16 * v);
  }
  return mask;
}

uint64_t Any64Sse2(const unsigned char* p, const ByteSet& set) {
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    __m128i block = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v));
    __m128i hits = _mm_setzero_si128();
    for (unsigned j = 0; j < set.n; ++j) {
      __m128i needle = _mm_set1_epi8(static_cast<char>(set.chars[j]));
      hits = _mm_or_si128(hits, _mm_cmpeq_epi8(block, needle));
    }
    mask |= MoveMask16(hits) << (16 * v);
  }
  return mask;
}

uint64_t Pair64Sse2(const unsigned char* p, size_t delta, unsigned char a,
                    unsigned char b) {
  const __m128i na = _mm_set1_epi8(static_cast<char>(a));
  const __m128i nb = _mm_set1_epi8(static_cast<char>(b));
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    __m128i lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v));
    __m128i hi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v + delta));
    __m128i hits =
        _mm_and_si128(_mm_cmpeq_epi8(lo, na), _mm_cmpeq_epi8(hi, nb));
    mask |= MoveMask16(hits) << (16 * v);
  }
  return mask;
}

constexpr Kernels kSse2 = {Isa::kSse2, Eq64Sse2, Any64Sse2, Pair64Sse2};

}  // namespace

const Kernels& Sse2Kernels() { return kSse2; }

}  // namespace smpx::simd::detail

#endif
