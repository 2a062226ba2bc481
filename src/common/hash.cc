#include "common/hash.h"

#include <cstring>

namespace i2mr {
namespace {

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

uint64_t Hash64(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h ^ (n * 0x9e3779b97f4a7c15ULL));
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

uint64_t MapInstanceKey(std::string_view k1, std::string_view v1) {
  return HashCombine(Hash64(k1), Hash64(v1, 0x8445d61a4e774912ULL));
}

namespace {

struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0);
      t[i] = c;
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) c = table.t[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

namespace {

constexpr uint32_t kP1 = 0x9e3779b1u;
constexpr uint32_t kP2 = 0x85ebca77u;
constexpr uint32_t kP3 = 0xc2b2ae3du;
constexpr uint32_t kP4 = 0x27d4eb2fu;
constexpr uint32_t kP5 = 0x165667b1u;

inline uint32_t Rotl32(uint32_t x, int r) { return (x << r) | (x >> (32 - r)); }

inline uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);  // little-endian hosts only (x86/arm64).
  return v;
}

inline uint32_t Round32(uint32_t acc, uint32_t word) {
  return Rotl32(acc + word * kP2, 13) * kP1;
}

}  // namespace

uint32_t Checksum32(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  uint32_t h;
  if (n >= 16) {
    uint32_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0u - kP1;
    for (const unsigned char* limit = end - 16; p <= limit; p += 16) {
      v1 = Round32(v1, Load32(p));
      v2 = Round32(v2, Load32(p + 4));
      v3 = Round32(v3, Load32(p + 8));
      v4 = Round32(v4, Load32(p + 12));
    }
    h = Rotl32(v1, 1) + Rotl32(v2, 7) + Rotl32(v3, 12) + Rotl32(v4, 18);
  } else {
    h = kP5;
  }
  h += static_cast<uint32_t>(n);
  for (; end - p >= 4; p += 4) h = Rotl32(h + Load32(p) * kP3, 17) * kP4;
  for (; p < end; ++p) h = Rotl32(h + *p * kP5, 11) * kP1;
  h ^= h >> 15;
  h *= kP2;
  h ^= h >> 13;
  h *= kP3;
  h ^= h >> 16;
  return h;
}

}  // namespace i2mr
