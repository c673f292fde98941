// Copyright (c) prefrep contributors.
// BlockSolveCache — a sharded, thread-safe, capacity-bounded memo table
// for per-block solving results, keyed by canonical block fingerprints
// (cache/block_fingerprint.h).
//
// Sharded workloads repeat the same hard gadget hundreds of times
// (MakeHardShardedWorkload; the paper's reductions stamp out copies of
// S1..S6 the same way), yet every block was solved from scratch.  The
// cache closes that gap: each isomorphism class of blocks pays for one
// exhaustive solve, every later encounter replays the stored result.
//
// Stored payloads are block masks (conflicts/blocks.h: bit i = the
// block's i-th fact).  Canonical order is fact_list order, so a mask is
// already in canonical coordinates: payloads are stored as the solvers
// return them and served as stored.  They carry the node count the
// original solve spent, so a hit can be replayed onto the caller's
// governor without re-enumerating and the node trajectory stays
// exactly on the cache-off path.  Only complete, exact results
// are ever stored — never kUnknown verdicts, never results produced by
// an exhausted governor — which is what makes "serve only under a
// budget at least as generous" collapse to the governor's replay rule,
// ResourceGovernor::TryReplay (see docs/caching.md, "Governor
// interaction").
//
// Thread safety: 16 independently-locked shards; counters are atomics.
// Worker timing can change which thread pays a miss (two workers may
// both miss the same fresh fingerprint), so hit/miss counts are
// timing-dependent — but every stored value for a key is the same
// deterministic result, so *values* served are not.
//
// The cache itself is policy-free: its one caller, CachedBlockSolve
// (repair/block_solver.h), decides when serving is governor-correct and
// calls NoteHit/NoteMiss accordingly, so the counters reflect served
// results, not raw probes.
//
// Nothing but the LRU removes an entry.  A block's answers depend on
// the block alone (FKK, Proposition 3.5), so an edited block hashes to
// a new fingerprint and can never hit an entry of its old shape: stale
// entries simply age out under capacity pressure.  Until they do, a
// block that an edit brings back to an old shape (a resident session's
// delete and revival, or a twin elsewhere) hits them.

#ifndef PREFREP_CACHE_BLOCK_CACHE_H_
#define PREFREP_CACHE_BLOCK_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/dynamic_bitset.h"
#include "base/macros.h"
#include "base/thread_annotations.h"
#include "cache/block_fingerprint.h"

namespace prefrep {

/// Cache traffic counters (monotonic, process lifetime of the cache).
struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stores = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  /// Approximate heap footprint of the stored payloads.
  size_t bytes = 0;
};

/// Memo table for per-block solving results.  See the file comment.
class BlockSolveCache {
 public:
  /// Default capacity in entries (not bytes): enough for every distinct
  /// gadget of a large reduction while bounding worst-case memory.
  static constexpr size_t kDefaultCapacity = 1 << 16;

  static constexpr size_t kNumShards = 16;

  explicit BlockSolveCache(size_t capacity = kDefaultCapacity);

  PREFREP_DISALLOW_COPY(BlockSolveCache);

  /// What one cached solve produced.  Exactly one payload member is
  /// meaningful per entry kind; every mask is in block coordinates.
  struct Entry {
    /// True verdict payload: `optimal`, plus the improving block-repair
    /// as one word when not optimal (only the exhaustive solver's
    /// verdicts are cached, and it admits at most 63 facts).
    bool optimal = false;
    uint64_t witness_local = 0;
    /// Optimal-set payload: OptimalBlockRepairs as returned by a
    /// complete solve, one word per block-repair, in walk order.
    std::vector<uint64_t> repairs_local;
    /// Construction payload: the greedy block mask (block-size bits).
    DynamicBitset repair_local;
    /// Checkpoints the original solve spent, and whether that number is
    /// meaningful: a solve under an unarmed governor counts nothing, so
    /// its entry says nodes_valid = false and node-replaying callers
    /// must treat it as a miss (and overwrite it with a counted solve).
    uint64_t nodes = 0;
    bool nodes_valid = false;
  };

  /// Looks up `key`; refreshes LRU recency on hit.  Does NOT touch the
  /// hit/miss counters — the caller decides whether the entry may be
  /// served (governor rules) and reports via NoteHit/NoteMiss.
  std::optional<Entry> Lookup(const BlockFingerprint& key);

  /// Inserts `entry` under `key`, evicting the least-recently-used
  /// entry of the shard when full.  An existing entry is replaced only
  /// when the incoming one upgrades nodes_valid from false to true
  /// (identical results, better accounting); otherwise the first write
  /// wins, keeping racing stores idempotent.
  void Store(const BlockFingerprint& key, Entry entry);

  void NoteHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void NoteMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  BlockCacheStats stats() const;

  size_t capacity() const { return capacity_; }

  /// Drops every entry (counters are kept — they are lifetime totals).
  void Clear();

 private:
  struct Shard {
    Mutex mu;
    // Front = most recently used.
    std::list<std::pair<BlockFingerprint, Entry>> lru PREFREP_GUARDED_BY(mu);
    std::unordered_map<BlockFingerprint,
                       std::list<std::pair<BlockFingerprint, Entry>>::iterator,
                       BlockFingerprintHash>
        index PREFREP_GUARDED_BY(mu);
  };

  Shard& shard_of(const BlockFingerprint& key) {
    return shards_[key.hi >> 60];  // top 4 bits pick one of 16 shards
  }

  static size_t EntryBytes(const Entry& entry);

  const size_t capacity_;
  const size_t shard_capacity_;
  Shard shards_[kNumShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stores_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> bytes_{0};
};

}  // namespace prefrep

#endif  // PREFREP_CACHE_BLOCK_CACHE_H_
