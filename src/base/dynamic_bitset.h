// Copyright (c) prefrep contributors.
// A compact growable bitset.  Subinstances of a database instance are
// represented as bitsets over dense fact ids, which makes set algebra
// (union, difference, containment) word-parallel.

#ifndef PREFREP_BASE_DYNAMIC_BITSET_H_
#define PREFREP_BASE_DYNAMIC_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/hash.h"
#include "base/macros.h"

namespace prefrep {

/// Fixed-universe bitset with word-parallel set algebra.
///
/// All binary operations require both operands to have the same universe
/// size; this is checked, since mixing subinstances of different instances
/// is always a bug in this library.
class DynamicBitset {
 public:
  DynamicBitset() : size_(0) {}

  /// Creates a bitset over a universe of `size` elements, all clear.
  explicit DynamicBitset(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  /// Number of elements in the universe (not the number of set bits).
  size_t size() const { return size_; }

  /// Grows the universe to `size` elements (new bits clear).  Shrinking
  /// is rejected: fact ids are stable, so a universe never loses
  /// elements — the serve layer tombstones facts instead.
  void Resize(size_t size) {
    PREFREP_CHECK_MSG(size >= size_, "DynamicBitset cannot shrink");
    size_ = size;
    words_.resize((size + 63) / 64, 0);
  }

  /// Tests bit `i`.
  bool test(size_t i) const {
    PREFREP_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Sets bit `i` to `value`.
  void set(size_t i, bool value = true) {
    PREFREP_DCHECK(i < size_);
    if (value) {
      words_[i >> 6] |= (uint64_t{1} << (i & 63));
    } else {
      words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }
  }

  void reset(size_t i) { set(i, false); }

  /// Clears all bits.
  void clear() {
    for (uint64_t& w : words_) {
      w = 0;
    }
  }

  /// Sets all bits in the universe.
  void set_all() {
    for (uint64_t& w : words_) {
      w = ~uint64_t{0};
    }
    TrimTail();
  }

  /// Number of set bits.
  size_t count() const {
    size_t n = 0;
    for (uint64_t w : words_) {
      n += static_cast<size_t>(__builtin_popcountll(w));
    }
    return n;
  }

  bool any() const {
    for (uint64_t w : words_) {
      if (w != 0) {
        return true;
      }
    }
    return false;
  }

  bool none() const { return !any(); }

  /// Returns true if every set bit of this is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const {
    PREFREP_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & ~other.words_[i]) {
        return false;
      }
    }
    return true;
  }

  /// Returns true if the two sets share no element.
  bool IsDisjointFrom(const DynamicBitset& other) const {
    PREFREP_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & other.words_[i]) {
        return false;
      }
    }
    return true;
  }

  DynamicBitset& operator|=(const DynamicBitset& other) {
    PREFREP_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
    return *this;
  }

  DynamicBitset& operator&=(const DynamicBitset& other) {
    PREFREP_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
    }
    return *this;
  }

  /// Set difference: removes from this every element of `other`.
  DynamicBitset& operator-=(const DynamicBitset& other) {
    PREFREP_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= ~other.words_[i];
    }
    return *this;
  }

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }
  friend DynamicBitset operator-(DynamicBitset a, const DynamicBitset& b) {
    a -= b;
    return a;
  }

  bool operator==(const DynamicBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const DynamicBitset& other) const {
    return !(*this == other);
  }

  /// Calls `fn(index)` for every set bit, in increasing index order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(w));
        fn(wi * 64 + bit);
        w &= w - 1;
      }
    }
  }

  /// Materializes the indices of set bits, in increasing order.
  std::vector<size_t> ToVector() const {
    std::vector<size_t> out;
    out.reserve(count());
    ForEach([&out](size_t i) { out.push_back(i); });
    return out;
  }

  /// Index of the first set bit, or size() if none.
  size_t FindFirst() const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi]) {
        return wi * 64 + static_cast<unsigned>(__builtin_ctzll(words_[wi]));
      }
    }
    return size_;
  }

  size_t HashValue() const {
    size_t seed = size_;
    for (uint64_t w : words_) {
      HashCombine(&seed, w);
    }
    return seed;
  }

 private:
  // Clears bits above the universe size after a whole-word fill.
  void TrimTail() {
    size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace prefrep

#endif  // PREFREP_BASE_DYNAMIC_BITSET_H_
