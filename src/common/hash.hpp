// Stable (process-independent) hashing.
//
// Gossips partition synchronization responsibility among themselves by
// rendezvous hashing (Section 2.3: responsibility is "dynamically
// partitioned ... amongst themselves"). Every gossip must compute identical
// hashes, so std::hash (implementation-defined) is out; FNV-1a is fixed.
#pragma once

#include <cstdint>
#include <string_view>

namespace ew {

/// FNV-1a 64-bit offset basis: the state before any byte is hashed.
constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a continued from state `h` over the bytes of `s`, so
/// fnv1a64(fnv1a64(a), b) == fnv1a64(a + b).
constexpr std::uint64_t fnv1a64(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// 64-bit FNV-1a.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  return fnv1a64(kFnv1a64Basis, s);
}

/// FNV-1a continued from state `h` over the eight bytes of `v`, least
/// significant first.
constexpr std::uint64_t fnv1a64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Rendezvous weight of `owner` for `item`: the owner with the highest
/// weight is responsible for the item.
constexpr std::uint64_t rendezvous_weight(std::string_view owner,
                                          std::string_view item) {
  std::uint64_t h = fnv1a64(owner);
  // Mix the two hashes (splitmix64 finalizer).
  std::uint64_t z = h ^ fnv1a64(item);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace ew
