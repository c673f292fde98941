#include "cache/block_cache.h"

#include <algorithm>

namespace prefrep {

BlockSolveCache::BlockSolveCache(size_t capacity)
    : capacity_(std::max<size_t>(capacity, kNumShards)),
      shard_capacity_(std::max<size_t>(capacity_ / kNumShards, 1)) {}

size_t BlockSolveCache::EntryBytes(const Entry& entry) {
  return sizeof(Entry) + sizeof(BlockFingerprint) +
         (entry.repair_local.size() + 63) / 64 * sizeof(uint64_t) +
         entry.repairs_local.size() * sizeof(uint64_t);
}

std::optional<BlockSolveCache::Entry> BlockSolveCache::Lookup(
    const BlockFingerprint& key) {
  Shard& shard = shard_of(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;  // copy out under the lock
}

void BlockSolveCache::Store(const BlockFingerprint& key, Entry entry) {
  Shard& shard = shard_of(key);
  const size_t incoming_bytes = EntryBytes(entry);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& existing = it->second->second;
    if (entry.nodes_valid && !existing.nodes_valid) {
      // Same deterministic result, but now with a real node count; the
      // upgrade lets node-replaying callers start hitting too.
      bytes_.fetch_add(incoming_bytes, std::memory_order_relaxed);
      bytes_.fetch_sub(EntryBytes(existing), std::memory_order_relaxed);
      existing = std::move(entry);
      stores_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    const auto& victim = shard.lru.back();
    bytes_.fetch_sub(EntryBytes(victim.second), std::memory_order_relaxed);
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  bytes_.fetch_add(incoming_bytes, std::memory_order_relaxed);
  shard.lru.emplace_front(key, std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  stores_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

void BlockSolveCache::Store(const BlockFingerprint& base,
                            const BlockFingerprint& key, Entry entry) {
  {
    MutexLock lock(derived_mu_);
    std::vector<BlockFingerprint>& keys = derived_[base];
    if (std::find(keys.begin(), keys.end(), key) == keys.end() &&
        keys.size() < kMaxDerivedPerBase) {
      keys.push_back(key);
    }
  }
  Store(key, std::move(entry));
}

bool BlockSolveCache::Erase(const BlockFingerprint& key) {
  Shard& shard = shard_of(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    return false;
  }
  bytes_.fetch_sub(EntryBytes(it->second->second),
                   std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.lru.erase(it->second);
  shard.index.erase(it);
  return true;
}

size_t BlockSolveCache::EraseDerivedFrom(const BlockFingerprint& base) {
  std::vector<BlockFingerprint> keys;
  {
    MutexLock lock(derived_mu_);
    auto it = derived_.find(base);
    if (it == derived_.end()) {
      return 0;
    }
    keys = std::move(it->second);
    derived_.erase(it);
  }
  size_t erased = 0;
  for (const BlockFingerprint& key : keys) {
    if (Erase(key)) {
      ++erased;
    }
  }
  return erased;
}

BlockCacheStats BlockSolveCache::stats() const {
  BlockCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

void BlockSolveCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [key, entry] : shard.lru) {
      bytes_.fetch_sub(EntryBytes(entry), std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.index.clear();
    shard.lru.clear();
  }
  MutexLock lock(derived_mu_);
  derived_.clear();
}

}  // namespace prefrep
