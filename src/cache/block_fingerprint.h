// Copyright (c) prefrep contributors.
// Canonical block fingerprints — the key side of the block-solve cache
// (cache/block_cache.h).
//
// Two blocks with the same fingerprint are solved identically by every
// per-block routine, so one block's result can be replayed for the
// other.  The fingerprint canonicalizes away the two sources of
// incidental identity a block carries:
//
//   * global fact ids — facts are relabeled to local indices 0..n-1 in
//     ascending-fact-id order, i.e. fact_list order.  Those are block
//     coordinates (conflicts/blocks.h), the coordinates every block
//     answer is computed in, so a stored answer lands on the right facts
//     of any block with the same fingerprint as it is; and
//   * concrete values — values are renamed first-occurrence-first while
//     scanning the facts in local order and each tuple left to right,
//     which preserves exactly the equality structure FD reasoning uses.
//
// What is absorbed (each section domain-separated): the arity and
// Theorem 3.1 classification (kind, single-FD attribute masks, key
// masks) of every relation the block spans — with each fact's relation
// when it spans two — the block size, the canonical value tuple of
// every fact, the conflict edges and the priority edges inside the
// block as local index pairs (an edge to a free fact is skipped: no
// solver reads it).  The compiler keeps this enumeration in step with the
// Block and PriorityRelation structs: ComputeBlockFingerprint binds
// every Block field by name, and a static_assert in priority/priority.h
// pins PriorityRelation's data members.
//
// Soundness (equal fingerprint ⇒ interchangeable results) rests on the
// metamorphic rename/reorder invariance of the solvers: equal
// fingerprints exhibit an order-preserving isomorphism between the
// blocks, and every solver's output is invariant under such a map (see
// docs/caching.md).  The map is *not* complete — blocks isomorphic only
// under a nontrivial fact permutation hash differently and simply miss.
// Hash collisions across genuinely different blocks are possible in
// principle (128-bit key, no canonical form stored); PREFREP_AUDIT
// builds re-solve every hit and would catch one.

#ifndef PREFREP_CACHE_BLOCK_FINGERPRINT_H_
#define PREFREP_CACHE_BLOCK_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>

#include "base/dynamic_bitset.h"
#include "base/hash.h"
#include "conflicts/blocks.h"
#include "model/context.h"

namespace prefrep {

/// A 128-bit cache key.  Compared by value only: the cache stores no
/// canonical form, so distinct blocks colliding in all 128 bits would
/// alias (probability ~ entries² / 2^128; the audit mode is the net).
struct BlockFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const BlockFingerprint& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const BlockFingerprint& other) const {
    return !(*this == other);
  }
};

struct BlockFingerprintHash {
  size_t operator()(const BlockFingerprint& fp) const {
    return static_cast<size_t>(fp.hi ^ HashMix64(fp.lo));
  }
};

/// Incremental two-lane 128-bit hash.  The lanes run the same splitmix
/// finalizer over differently-seeded, differently-tweaked states, so a
/// single-lane collision does not imply a key collision.
class FingerprintAccumulator {
 public:
  /// Starts a fresh accumulation under a domain tag (distinct tags give
  /// unrelated hash families).
  explicit FingerprintAccumulator(uint64_t domain);

  /// Continues from an existing fingerprint (for deriving per-operation
  /// keys from a block's base fingerprint).
  FingerprintAccumulator(const BlockFingerprint& base, uint64_t domain);

  void Absorb(uint64_t value) {
    ++length_;
    hi_ = HashMix64(hi_ ^ (value + 0x9e3779b97f4a7c15ULL));
    lo_ = HashMix64(lo_ + (value ^ 0xc2b2ae3d27d4eb4fULL));
  }

  /// Finishes the accumulation (folds in the absorbed length, so
  /// prefix-related streams do not collide).
  BlockFingerprint Finish() const;

 private:
  uint64_t hi_;
  uint64_t lo_;
  uint64_t length_ = 0;
};

/// The canonical fingerprint of block `b` of `ctx` (values, conflict
/// edges, priority edges, classification — see the file comment).
/// Touches ctx.classification(), so prime shared contexts first.
BlockFingerprint ComputeBlockFingerprint(const ProblemContext& ctx,
                                         const Block& b);

/// The per-block operations the cache memoizes.  Each gets its own key
/// family derived from the block's base fingerprint, salted with the
/// operation's remaining inputs (solver identity, J ∩ b digest,
/// tie-break stream id — see the call sites in repair/).
enum class BlockCacheOp : uint64_t {
  kVerdict = 1,     ///< CheckBlock (exhaustive solver only)
  kOptimalSet = 3,  ///< OptimalBlockRepairs
  kConstruct = 4,   ///< greedy block construction
};

/// Derives the cache key of one operation on one block: the base
/// fingerprint extended by the op tag and two op-specific salts.
BlockFingerprint DeriveOpKey(const BlockFingerprint& base, BlockCacheOp op,
                             uint64_t salt_a = 0, uint64_t salt_b = 0);

/// Digest of a subinstance restricted to block `b`, in block
/// coordinates.  Used to salt verdict-cache keys with J ∩ b: CheckBlock
/// answers depend on which block facts J keeps, and local indices make
/// the digest rename-invariant.
uint64_t CanonicalSubsetDigest(const Block& b, const DynamicBitset& sub);

}  // namespace prefrep

#endif  // PREFREP_CACHE_BLOCK_FINGERPRINT_H_
