// 64-bit hashing used for shuffle partitioning, chunk indexes and MK keys.
#ifndef I2MR_COMMON_HASH_H_
#define I2MR_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace i2mr {

/// 64-bit FNV-1a with an avalanche finalizer (splitmix64 mix). Stable across
/// platforms and runs; do not change without regenerating persisted indexes.
uint64_t Hash64(const void* data, size_t n, uint64_t seed = 0xcbf29ce484222325ULL);

inline uint64_t Hash64(std::string_view s, uint64_t seed = 0xcbf29ce484222325ULL) {
  return Hash64(s.data(), s.size(), seed);
}

/// Combine two hashes (order-sensitive).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// Globally unique Map-instance key for one-step jobs: Hash64(K1 ‖ V1).
uint64_t MapInstanceKey(std::string_view k1, std::string_view v1);

/// CRC-32 (IEEE 802.3 polynomial, reflected). Used to frame durable log
/// records; stable across platforms and runs — do not change without
/// regenerating persisted logs.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

/// 32-bit frame checksum: the XXH32 algorithm (seed 0), read a little-endian
/// 32-bit word at a time over four independent lanes. Every step is a
/// bijection of the running state and of the word it absorbs, so any change
/// confined to one aligned 4-byte word — every single-bit flip included — is
/// always detected. Frames MRBG chunks and tombstones; stable across
/// platforms and runs — do not change without bumping the frame magics.
uint32_t Checksum32(const void* data, size_t n);

inline uint32_t Checksum32(std::string_view s) {
  return Checksum32(s.data(), s.size());
}

}  // namespace i2mr

#endif  // I2MR_COMMON_HASH_H_
