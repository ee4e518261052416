#include "util/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace liferaft {
namespace {

/// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table,
/// and kTables[k][b] is the CRC of byte b followed by k zero bytes, so
/// eight lookups fold eight input bytes into the running CRC at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

const Tables kTables = BuildTables();

/// Little-endian 32-bit load. Written as one expression so the compiler
/// merges it into a single load; util/coding.h's GetFixed32 loop stays
/// four byte loads at -O2, which made BM_Crc32 ~1.5x slower.
uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)

// Carry-less-multiply folding for the reflected polynomial 0xEDB88320:
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009), as zlib-ng and Linux run it. Only
// these two functions are compiled for PCLMULQDQ/SSE4.1; Crc32 calls them
// only when the CPU reports both.

__m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves the 128-bit remainder `x` forward by the distance whose two
/// constants `k` holds (x.lo·k.lo ^ x.hi·k.hi) and adds the 16 bytes
/// found there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold16(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Continues the pre-inverted running CRC `crc` over `len` bytes, a
/// multiple of 16 and at least 64. Four lanes fold 64 bytes per step
/// (k1, k2: 512 bits on), then one lane folds 16 bytes per step (k3, k4:
/// 128 bits on). k4 and k5 fold the last 128 bits to 64, and a Barrett
/// reduction by P' (P with its x^32 term) and mu = x^64 / P gives the
/// 32-bit remainder. All constants are bit-reflected.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldClmul(
    const unsigned char* p, size_t len, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x0 = Fold16(x0, k1k2, Load128(p));
    x1 = Fold16(x1, k1k2, Load128(p + 16));
    x2 = Fold16(x2, k1k2, Load128(p + 32));
    x3 = Fold16(x3, k1k2, Load128(p + 48));
  }
  x0 = Fold16(x0, k3k4, x1);
  x0 = Fold16(x0, k3k4, x2);
  x0 = Fold16(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = Fold16(x0, k3k4, Load128(p));

  __m128i x = _mm_xor_si128(_mm_srli_si128(x0, 8),
                            _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

const bool kHasClmul = CpuHasClmul();

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const Tables& t = kTables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  // The kernel takes the 16-byte-multiple prefix; the loops below finish
  // the tail, and everything on CPUs without the kernel or below 64 bytes.
  if (kHasClmul && len >= 64) {
    const size_t folded = len & ~size_t{15};
    c = FoldClmul(p, folded, c);
    p += folded;
    len -= folded;
  }
#endif
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = Load32(p) ^ c;
    const uint32_t hi = Load32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace liferaft
