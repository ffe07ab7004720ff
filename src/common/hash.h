// Hashing primitives shared by the ring, the Bloom filters and the cache.
//
// Everything here is deterministic and seedable so that simulations and
// benchmarks regenerate bit-identical results across runs and platforms.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace proteus {

// SplitMix64 finalizer. A fast, well-distributed 64-bit mixer; used both as
// an integer hash and as the seeding step for the RNGs in rng.h.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over raw bytes, the classic simple string hash.
constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// xxhash64-style avalanche over a string view with a seed. Not the full
// xxhash algorithm; a compact read-8-bytes-at-a-time construction with the
// same finalizer quality, good enough for key-space distribution.
std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed = 0) noexcept;

inline std::uint64_t hash_u64(std::uint64_t x, std::uint64_t seed = 0) noexcept {
  return splitmix64(x ^ splitmix64(seed));
}

inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected, init/final-xor
// 0xFFFFFFFF) over raw bytes. `seed` is the running CRC for incremental
// use: crc32c(b) == crc32c(b2, crc32c(b1)) for any split b = b1 + b2.
//
// Used as the end-to-end payload integrity checksum on the wire (the text
// `C<hex8>` meta-token) and at-rest in the cache, so it must be cheap on
// the hot GET path. Dispatches at runtime to an SSE4.2 crc32q path and,
// where available, a VPCLMULQDQ folding kernel (~0.07 cycles/byte); the
// portable fallback is slicing-by-8. All paths produce identical results
// (hash_test cross-checks them).
std::uint32_t crc32c(std::string_view bytes, std::uint32_t seed = 0) noexcept;

// Kirsch–Mitzenmacher double hashing: h_i(x) = h1 + i*h2. Provides any
// number of "independent" hash values from two base hashes; the standard
// technique for Bloom filters.
class DoubleHasher {
 public:
  explicit DoubleHasher(std::string_view key, std::uint64_t seed = 0) noexcept
      : h1_(hash_bytes(key, seed)),
        h2_(hash_bytes(key, seed ^ 0x5bd1e995) | 1) {}  // odd step

  explicit DoubleHasher(std::uint64_t key, std::uint64_t seed = 0) noexcept
      : h1_(hash_u64(key, seed)), h2_(hash_u64(key, seed ^ 0x5bd1e995) | 1) {}

  std::uint64_t operator()(unsigned i) const noexcept { return h1_ + i * h2_; }

 private:
  std::uint64_t h1_;
  std::uint64_t h2_;
};

}  // namespace proteus
