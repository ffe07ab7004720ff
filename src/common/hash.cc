#include "common/hash.h"

#if defined(__x86_64__) && defined(__GNUC__)
// GCC 12's _mm512_extracti32x4_epi32 passes _mm_undefined_si128(), a
// self-initialised variable, and -Wmaybe-uninitialized flags it inside the
// header (GCC bug 105593); nothing in this file reads it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define PROTEUS_CRC32C_X86 1
#endif

namespace proteus {

namespace {

inline std::uint64_t load_u64(const char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

}  // namespace

std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed) noexcept {
  constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;

  std::uint64_t h = seed ^ (bytes.size() * kPrime1);
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    h ^= rotl(load_u64(p) * kPrime2, 31) * kPrime1;
    h = rotl(h, 27) * kPrime1 + kPrime3;
    p += 8;
    n -= 8;
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tail = (tail << 8) | static_cast<unsigned char>(p[i]);
  }
  h ^= splitmix64(tail + n);
  return splitmix64(h);
}

// ---------------------------------------------------------------------------
// CRC32C.
//
// Reflected Castagnoli CRC. The register convention throughout is the usual
// reflected one where "multiply by x" is (s >> 1) ^ (s & 1 ? kPolyRefl : 0);
// all fold constants are derived from x^n mod P at static-init time rather
// than baked in as magic numbers, so the clmul kernels carry no unexplained
// hex. hash_test cross-checks every dispatch path against the portable
// slicing-by-8 implementation on random buffers of every size class.

namespace {

constexpr std::uint32_t kCrc32cPolyRefl = 0x82F63B78u;

// x^e mod P in the reflected register convention (bit 31-k <-> x^k).
std::uint32_t crc32c_xpow(unsigned e) noexcept {
  std::uint32_t s = 0x80000000u;  // x^0
  while (e--) s = (s >> 1) ^ ((s & 1) ? kCrc32cPolyRefl : 0);
  return s;
}

// Slicing-by-8 tables. table[0] is the classic byte table; table[k] maps a
// byte processed k positions earlier, so eight lookups retire 8 bytes.
struct Crc32cTables {
  std::uint32_t t[8][256];
  Crc32cTables() noexcept {
    for (unsigned i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) c = (c >> 1) ^ ((c & 1) ? kCrc32cPolyRefl : 0);
      t[0][i] = c;
    }
    for (unsigned k = 1; k < 8; ++k) {
      for (unsigned i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Crc32cTables& crc32c_tables() noexcept {
  static const Crc32cTables tables;
  return tables;
}

inline std::uint32_t load_u32(const char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Portable path: slicing-by-8. `crc` is the raw register (init already
// applied by the caller).
std::uint32_t crc32c_sw(const char* p, std::size_t n,
                        std::uint32_t crc) noexcept {
  const Crc32cTables& tb = crc32c_tables();
  while (n >= 8) {
    const std::uint32_t lo = load_u32(p) ^ crc;
    const std::uint32_t hi = load_u32(p + 4);
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ static_cast<unsigned char>(*p++)) & 0xff];
  }
  return crc;
}

#if PROTEUS_CRC32C_X86

// SSE4.2 path: the crc32 instruction, 8 bytes per op.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const char* p, std::size_t n, std::uint32_t crc) noexcept {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    c = _mm_crc32_u64(c, v);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  while (n--) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*p++));
  }
  return crc;
}

// Fold constants: multiplying a 128-bit chunk forward by D bytes needs the
// clmul pair (x^(8D+32), x^(8D-32)), each shifted left one bit to absorb
// the reflected-clmul off-by-one. Derived empirically against the bitwise
// oracle and locked in by hash_test.
struct Crc32cFoldK {
  std::uint64_t lo, hi;
};

Crc32cFoldK crc32c_fold_k(unsigned dist_bytes) noexcept {
  return Crc32cFoldK{
      static_cast<std::uint64_t>(crc32c_xpow(8 * dist_bytes + 32)) << 1,
      static_cast<std::uint64_t>(crc32c_xpow(8 * dist_bytes - 32)) << 1};
}

struct Crc32cAvxConsts {
  Crc32cFoldK loop;      // fold by 256 bytes (4-accumulator stride)
  Crc32cFoldK z192;      // compress A0..A3 -> one register
  Crc32cFoldK z128;
  Crc32cFoldK z64;
  Crc32cFoldK lane48;    // compress the four 16-byte lanes -> 128 bits
  Crc32cFoldK lane32;
  Crc32cFoldK lane16;
  Crc32cAvxConsts() noexcept
      : loop(crc32c_fold_k(256)),
        z192(crc32c_fold_k(192)),
        z128(crc32c_fold_k(128)),
        z64(crc32c_fold_k(64)),
        lane48(crc32c_fold_k(48)),
        lane32(crc32c_fold_k(32)),
        lane16(crc32c_fold_k(16)) {}
};

const Crc32cAvxConsts& crc32c_avx_consts() noexcept {
  static const Crc32cAvxConsts consts;
  return consts;
}

#define PROTEUS_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512vl,vpclmulqdq,sse4.2")))

PROTEUS_TARGET_AVX512 inline __m512i crc32c_fold_pair(
    std::uint64_t lo, std::uint64_t hi) noexcept {
  return _mm512_set_epi64(
      static_cast<long long>(hi), static_cast<long long>(lo),
      static_cast<long long>(hi), static_cast<long long>(lo),
      static_cast<long long>(hi), static_cast<long long>(lo),
      static_cast<long long>(hi), static_cast<long long>(lo));
}

PROTEUS_TARGET_AVX512 inline __m512i crc32c_fold512(__m512i acc,
                                                    __m512i k) noexcept {
  return _mm512_xor_si512(_mm512_clmulepi64_epi128(acc, k, 0x00),
                          _mm512_clmulepi64_epi128(acc, k, 0x11));
}

// AVX-512 + VPCLMULQDQ path: four 512-bit accumulators folding 256 bytes
// per iteration (~0.07 cycles/byte), the workhorse behind the <=30 ns/KiB
// verify budget on the GET path. Invariant: the accumulators always hold a
// literal 256-byte message whose CRC equals the CRC of everything consumed
// so far, so the final reduction is plain folds plus two crc32 ops.
PROTEUS_TARGET_AVX512
std::uint32_t crc32c_avx(const char* p, std::size_t n,
                         std::uint32_t crc) noexcept {
  if (n < 512) return crc32c_hw(p, n, crc);
  const Crc32cAvxConsts& K = crc32c_avx_consts();
  const auto fold_pair = crc32c_fold_pair;
  const auto fold = crc32c_fold512;
  __m512i a0 = _mm512_loadu_si512(p);
  __m512i a1 = _mm512_loadu_si512(p + 64);
  __m512i a2 = _mm512_loadu_si512(p + 128);
  __m512i a3 = _mm512_loadu_si512(p + 192);
  // Fold the init register into the first four message bytes.
  a0 = _mm512_xor_si512(
      a0, _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
  p += 256;
  n -= 256;
  const __m512i kloop = fold_pair(K.loop.lo, K.loop.hi);
  while (n >= 256) {
    a0 = _mm512_xor_si512(_mm512_loadu_si512(p), fold(a0, kloop));
    a1 = _mm512_xor_si512(_mm512_loadu_si512(p + 64), fold(a1, kloop));
    a2 = _mm512_xor_si512(_mm512_loadu_si512(p + 128), fold(a2, kloop));
    a3 = _mm512_xor_si512(_mm512_loadu_si512(p + 192), fold(a3, kloop));
    p += 256;
    n -= 256;
  }
  // Compress the four accumulators into one 512-bit register...
  __m512i z = _mm512_xor_si512(
      _mm512_xor_si512(fold(a0, fold_pair(K.z192.lo, K.z192.hi)),
                       fold(a1, fold_pair(K.z128.lo, K.z128.hi))),
      _mm512_xor_si512(fold(a2, fold_pair(K.z64.lo, K.z64.hi)), a3));
  // ...then its four 16-byte lanes into one 128-bit value. Lane 3 folds by
  // zero bytes, i.e. passes through.
  const __m512i klane = _mm512_set_epi64(
      0, 0, static_cast<long long>(K.lane16.hi),
      static_cast<long long>(K.lane16.lo), static_cast<long long>(K.lane32.hi),
      static_cast<long long>(K.lane32.lo), static_cast<long long>(K.lane48.hi),
      static_cast<long long>(K.lane48.lo));
  const __m512i zf = fold(z, klane);
  // Lane 3 folds by zero bytes: its clmul constant is zero, so XOR the
  // original lane back in unchanged.
  __m128i v = _mm_xor_si128(
      _mm_xor_si128(_mm512_extracti32x4_epi32(zf, 0),
                    _mm512_extracti32x4_epi32(zf, 1)),
      _mm_xor_si128(_mm512_extracti32x4_epi32(zf, 2),
                    _mm512_extracti32x4_epi32(z, 3)));
  std::uint64_t c = _mm_crc32_u64(0, static_cast<std::uint64_t>(
                                         _mm_cvtsi128_si64(v)));
  c = _mm_crc32_u64(c, static_cast<std::uint64_t>(
                           _mm_extract_epi64(v, 1)));
  return crc32c_hw(p, n, static_cast<std::uint32_t>(c));
}

#endif  // PROTEUS_CRC32C_X86

using Crc32cFn = std::uint32_t (*)(const char*, std::size_t,
                                   std::uint32_t) noexcept;

Crc32cFn crc32c_resolve() noexcept {
#if PROTEUS_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("vpclmulqdq") &&
      __builtin_cpu_supports("sse4.2")) {
    (void)crc32c_avx_consts();  // build fold constants before first use
    return &crc32c_avx;
  }
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_hw;
#endif
  (void)crc32c_tables();
  return &crc32c_sw;
}

}  // namespace

std::uint32_t crc32c(std::string_view bytes, std::uint32_t seed) noexcept {
  static const Crc32cFn fn = crc32c_resolve();
  return ~fn(bytes.data(), bytes.size(), ~seed);
}

}  // namespace proteus
