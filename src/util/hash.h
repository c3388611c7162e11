// 64-bit FNV-1a for RNG fork tags and checkpoint checksums. Header-only so
// mercury_worker, which links no project library, can use it.
#pragma once

#include <cstdint>
#include <string_view>

namespace mercury::util {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/// FNV-1a over `bytes`, continuing from `hash` (the standard offset basis by
/// default), so several fields can be hashed in sequence.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t hash = kFnv1aBasis) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace mercury::util
