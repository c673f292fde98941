// Copyright (c) prefrep contributors.
// Hashing helpers: combinators and hashing of small integer sequences.

#ifndef PREFREP_BASE_HASH_H_
#define PREFREP_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace prefrep {

/// Mixes a 64-bit value (variant of the splitmix64 finalizer).
inline uint64_t HashMix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combines a hash seed with the hash of a value (boost::hash_combine-like,
/// widened to 64 bits).
inline void HashCombine(size_t* seed, uint64_t value) {
  *seed ^= HashMix64(value) + 0x9e3779b97f4a7c15ULL + (*seed << 6) +
           (*seed >> 2);
}

/// Hashes a contiguous range of integral values.
template <typename It>
size_t HashRange(It first, It last) {
  size_t seed = 0x12fadd07c0ffee11ULL;
  for (; first != last; ++first) {
    HashCombine(&seed, static_cast<uint64_t>(*first));
  }
  return seed;
}

/// Hash functor for std::vector of integral values; used for tuple keys.
template <typename T>
struct VectorHash {
  size_t operator()(const std::vector<T>& v) const {
    return HashRange(v.begin(), v.end());
  }
};

/// Hash functor for std::pair of integral values.
template <typename A, typename B>
struct PairHash {
  size_t operator()(const std::pair<A, B>& p) const {
    size_t seed = 0xabcdef1234567890ULL;
    HashCombine(&seed, static_cast<uint64_t>(p.first));
    HashCombine(&seed, static_cast<uint64_t>(p.second));
    return seed;
  }
};

/// Transparent string hash, so a string-keyed index can be probed with a
/// string_view directly (no std::string materialized per lookup).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// A string-keyed map probed by string_view without allocating.
template <typename V>
using StringViewMap =
    std::unordered_map<std::string, V, TransparentStringHash, std::equal_to<>>;

}  // namespace prefrep

#endif  // PREFREP_BASE_HASH_H_
