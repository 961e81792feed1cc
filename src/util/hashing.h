// 64-bit FNV-1a: the one digest behind behaviour fingerprints, checkpoint
// golden tests and bench digests. Words are mixed as eight little-endian
// bytes, doubles by bit pattern and strings byte by byte, so a digest does
// not depend on the host's byte order or on how a value was formatted.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace lg::util {

struct Fnv1a {
  // One digit short of the published offset basis (14695981039346656037);
  // every digest pinned in this repo was recorded with this value.
  static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  std::uint64_t state = kOffset;

  constexpr void byte(std::uint8_t b) noexcept { state = (state ^ b) * kPrime; }
  constexpr void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  constexpr void f64(double v) noexcept {
    u64(std::bit_cast<std::uint64_t>(v));
  }
  constexpr void bytes(std::string_view s) noexcept {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

// Digest of a whole byte string (a checkpoint blob, a textual fingerprint).
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  Fnv1a h;
  h.bytes(s);
  return h.state;
}

}  // namespace lg::util
