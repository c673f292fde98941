// Tests for the block-solve cache (cache/): canonical fingerprint
// invariance and distinctness, subset (un)canonicalization, per-op key
// derivation, LRU eviction and the store-upgrade policy, and the
// end-to-end hit behaviour on a sharded hard workload.  The serve rule
// is the governor's replay rule, tested in governor_test.

#include <gtest/gtest.h>

#include <utility>

#include "cache/block_cache.h"
#include "cache/block_fingerprint.h"
#include "gen/hard_workloads.h"
#include "model/context.h"
#include "repair/checker.h"

namespace prefrep {
namespace {

// ---- Fingerprints ---------------------------------------------------

// The default sharded workload stamps out constant-renamed copies of
// one block at shifted fact ids: the canonical fingerprint must erase
// both the renaming and the shift.
TEST(BlockFingerprintTest, InvariantUnderRenamingAndFactIdShift) {
  PreferredRepairProblem p = MakeHardShardedWorkload(3, 3, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), 3u);
  const Block& b0 = ctx.blocks().blocks()[0];
  const Block& b2 = ctx.blocks().blocks()[2];
  EXPECT_NE(b0.fact_list.front(), b2.fact_list.front());
  EXPECT_EQ(ComputeBlockFingerprint(ctx, b0),
            ComputeBlockFingerprint(ctx, b2));
}

TEST(BlockFingerprintTest, DistinguishesPriorityStructure) {
  PreferredRepairProblem p =
      MakeHardShardedWorkload(3, 3, 3, /*distinct_blocks=*/true);
  ProblemContext ctx(*p.instance, *p.priority);
  const Block& b0 = ctx.blocks().blocks()[0];
  const Block& b1 = ctx.blocks().blocks()[1];
  EXPECT_NE(ComputeBlockFingerprint(ctx, b0),
            ComputeBlockFingerprint(ctx, b1));
}

TEST(BlockFingerprintTest, SubsetDigestFollowsTheIsomorphism) {
  PreferredRepairProblem p = MakeHardShardedWorkload(2, 3, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  const Block& b0 = ctx.blocks().blocks()[0];
  const Block& b1 = ctx.blocks().blocks()[1];
  // J (all member-1 facts) restricted to each block picks corresponding
  // members, so the canonical digests agree across the renaming...
  EXPECT_EQ(CanonicalSubsetDigest(b0, p.j), CanonicalSubsetDigest(b1, p.j));
  // ...while a different local subset digests differently.
  DynamicBitset other = p.j;
  other.reset(b0.fact_list.front() + 1);
  other.set(b0.fact_list.front());
  EXPECT_NE(CanonicalSubsetDigest(b0, other),
            CanonicalSubsetDigest(b0, p.j));
}

TEST(BlockFingerprintTest, SubsetCanonicalizationRoundTrips) {
  PreferredRepairProblem p = MakeHardShardedWorkload(2, 3, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  const Block& b1 = ctx.blocks().blocks()[1];
  DynamicBitset j_in_block(ctx.instance().num_facts());
  for (FactId f : b1.fact_list) {
    j_in_block.set(f, p.j.test(f));
  }
  const uint64_t local = ToBlockWord(b1, p.j);
  EXPECT_EQ(local >> b1.size(), 0u);
  EXPECT_EQ(static_cast<size_t>(__builtin_popcountll(local)),
            j_in_block.count());
  DynamicBitset back(ctx.instance().num_facts());
  OrBlockMask(b1, local, &back);
  EXPECT_EQ(back, j_in_block);
}

TEST(BlockFingerprintTest, OpKeysAreDistinctPerOpAndSalt) {
  BlockFingerprint base{0x1234, 0x5678};
  BlockFingerprint verdict = DeriveOpKey(base, BlockCacheOp::kVerdict, 7, 9);
  EXPECT_NE(verdict, DeriveOpKey(base, BlockCacheOp::kOptimalSet, 7, 9));
  EXPECT_NE(verdict, DeriveOpKey(base, BlockCacheOp::kConstruct, 7, 9));
  EXPECT_NE(verdict, DeriveOpKey(base, BlockCacheOp::kVerdict, 8, 9));
  EXPECT_NE(verdict, DeriveOpKey(base, BlockCacheOp::kVerdict, 7, 10));
  EXPECT_EQ(verdict, DeriveOpKey(base, BlockCacheOp::kVerdict, 7, 9));
}

// ---- The cache table ------------------------------------------------

// An optimal-set entry of one block-repair, `mask`, whose solve spent
// `nodes` counted checkpoints.
BlockSolveCache::Entry CountedEntry(uint64_t mask, uint64_t nodes) {
  BlockSolveCache::Entry e;
  e.repairs_local = {mask};
  e.nodes = nodes;
  e.nodes_valid = true;
  return e;
}

// Keys with hi = 0 all land in shard 0, making per-shard LRU behaviour
// observable through the public interface.
BlockFingerprint ShardZeroKey(uint64_t lo) { return BlockFingerprint{0, lo}; }

TEST(BlockSolveCacheTest, EvictsLeastRecentlyUsedWithinAShard) {
  // capacity 32 → 2 entries per shard.
  BlockSolveCache cache(/*capacity=*/32);
  cache.Store(ShardZeroKey(1), CountedEntry(11, 0));
  cache.Store(ShardZeroKey(2), CountedEntry(22, 0));
  ASSERT_TRUE(cache.Lookup(ShardZeroKey(1)).has_value());  // refresh key 1
  cache.Store(ShardZeroKey(3), CountedEntry(33, 0));       // evicts key 2
  EXPECT_TRUE(cache.Lookup(ShardZeroKey(1)).has_value());
  EXPECT_FALSE(cache.Lookup(ShardZeroKey(2)).has_value());
  EXPECT_TRUE(cache.Lookup(ShardZeroKey(3)).has_value());
  BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.stores, 3u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(BlockSolveCacheTest, FirstStoreWinsExceptForNodeCountUpgrades) {
  BlockSolveCache cache;
  BlockSolveCache::Entry uncounted;
  uncounted.repairs_local = {5};
  uncounted.nodes_valid = false;
  cache.Store(ShardZeroKey(1), uncounted);
  // A counted solve of the same key upgrades the entry...
  cache.Store(ShardZeroKey(1), CountedEntry(5, 40));
  std::optional<BlockSolveCache::Entry> got = cache.Lookup(ShardZeroKey(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->nodes_valid);
  EXPECT_EQ(got->nodes, 40u);
  // ...but an uncounted (or repeated) store never downgrades it.
  cache.Store(ShardZeroKey(1), uncounted);
  cache.Store(ShardZeroKey(1), CountedEntry(5, 99));
  got = cache.Lookup(ShardZeroKey(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->nodes_valid);
  EXPECT_EQ(got->nodes, 40u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(BlockSolveCacheTest, ClearDropsEntriesButKeepsCounters) {
  BlockSolveCache cache;
  cache.Store(ShardZeroKey(1), CountedEntry(1, 0));
  cache.NoteHit();
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(ShardZeroKey(1)).has_value());
  BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// ---- End to end -----------------------------------------------------

// Checks the four identical shards of MakeHardShardedWorkload(4, 3, 3)
// twice through one cache at `parallelism`, and returns the cache's
// stats after the first and the second check.
std::pair<BlockCacheStats, BlockCacheStats> CheckShardsTwice(
    size_t parallelism) {
  PreferredRepairProblem p = MakeHardShardedWorkload(4, 3, 3);

  ProblemContext plain_ctx(*p.instance, *p.priority);
  RepairChecker plain(plain_ctx);
  auto expected = plain.CheckGloballyOptimal(p.j);
  EXPECT_TRUE(expected.ok());

  BlockSolveCache cache;
  ProblemContext ctx(*p.instance, *p.priority);
  ctx.set_parallelism(parallelism);
  ctx.set_block_cache(&cache);
  RepairChecker checker(ctx);
  auto outcome = checker.CheckGloballyOptimal(p.j);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.optimal, expected->result.optimal);
  const BlockCacheStats first = cache.stats();

  auto again = checker.CheckGloballyOptimal(p.j);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(again->result.optimal, expected->result.optimal);
  return {first, cache.stats()};
}

TEST(CacheEndToEndTest, IdenticalShardsHitAfterTheFirstSolve) {
  // Serially, one shard pays the exhaustive solve and the other three
  // replay it; a warm rerun hits on every shard.
  const auto [first, second] = CheckShardsTwice(1);
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.hits, 3u);
  EXPECT_EQ(first.stores, 1u);
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.hits, first.hits + 4);
}

TEST(CacheEndToEndTest, IdenticalShardsUnderParallelSolving) {
  // With workers, several shards may miss before the first store lands,
  // so only what holds under every schedule is asserted: one lookup per
  // shard, and a warm rerun that hits on every shard.
  const auto [first, second] = CheckShardsTwice(0);
  EXPECT_EQ(first.hits + first.misses, 4u);
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.hits, first.hits + 4);
}

TEST(CacheEndToEndTest, DistinctShardsAllMiss) {
  PreferredRepairProblem p =
      MakeHardShardedWorkload(4, 3, 3, /*distinct_blocks=*/true);
  BlockSolveCache cache;
  ProblemContext ctx(*p.instance, *p.priority);
  ctx.set_block_cache(&cache);
  RepairChecker checker(ctx);
  auto outcome = checker.CheckGloballyOptimal(p.j);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->result.optimal);
  BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.stores, 4u);
}

}  // namespace
}  // namespace prefrep
