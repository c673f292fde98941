#include "repair/construct.h"

#include <optional>

#include "base/random.h"
#include "repair/audit.h"
#include "repair/block_solver.h"

namespace prefrep {

std::optional<DynamicBitset> GreedyWithin(const ConflictGraph& cg,
                                          const PriorityRelation& pr,
                                          const std::vector<FactId>& facts,
                                          const ConstructOptions& options,
                                          ResourceGovernor& governor) {
  Rng rng(options.seed);
  const size_t c = facts.size();
  DynamicBitset remaining(c);
  remaining.set_all();
  DynamicBitset out(c);
  size_t left = c;
  std::vector<size_t> candidates;  // positions in `facts`
  while (left > 0) {
    if (!governor.Checkpoint()) {
      return std::nullopt;
    }
    // The ≻-maximal remaining facts (acyclicity guarantees one exists).
    candidates.clear();
    remaining.ForEach([&](size_t i) {
      for (FactId g : pr.DominatedBy(facts[i])) {
        const size_t k = PositionIn(facts, g);
        if (k != SIZE_MAX && remaining.test(k)) {
          return;
        }
      }
      candidates.push_back(i);
    });
    PREFREP_CHECK_MSG(!candidates.empty(),
                      "acyclic priority must leave a maximal fact");
    size_t pick = candidates.front();
    switch (options.tie_break) {
      case TieBreak::kFirstFact:
        break;  // candidates are in ascending id order already
      case TieBreak::kRandom:
        pick = candidates[rng.NextBounded(candidates.size())];
        break;
      case TieBreak::kMostDominating: {
        size_t best = 0;
        for (size_t i : candidates) {
          size_t score = pr.Dominates(facts[i]).size();
          if (score > best) {
            best = score;
            pick = i;
          }
        }
        break;
      }
    }
    out.set(pick);
    remaining.reset(pick);
    --left;
    for (FactId u : cg.neighbors(facts[pick])) {
      const size_t k = PositionIn(facts, u);
      if (k != SIZE_MAX && remaining.test(k)) {
        remaining.reset(k);
        --left;
      }
    }
  }
  return out;
}

namespace {

// Per-block tie-break stream: kRandom draws must not depend on how
// many blocks ran before this one (or on which thread ran it), so each
// block derives its own deterministic stream from (seed, block id).
// Rng expands seeds through splitmix64, so the xor-mix is enough.
uint64_t BlockStreamSeed(const ConstructOptions& options, size_t block_id) {
  return options.seed ^ ((block_id + 1) * 0x9e3779b97f4a7c15ULL);
}

// GreedyWithin on one block through the block-solve cache.  The greedy
// output is a function of the block's canonical structure, the
// tie-break rule, and — for kRandom — the block's derived tie-break
// stream seed (BlockStreamSeed), so exactly those salt the key: two
// identical blocks share a kFirstFact/kMostDominating entry but keep
// separate kRandom entries, because their streams genuinely differ.
// The greedy pass has no block admission to mirror, and its block mask
// is stored and served as is.
std::optional<DynamicBitset> CachedGreedyBlock(
    const ProblemContext& ctx, const Block& b,
    const ConstructOptions& options) {
  const uint64_t stream_salt = options.tie_break == TieBreak::kRandom
                                   ? BlockStreamSeed(options, b.id)
                                   : 0;
  return CachedBlockSolve(
      ctx, b, /*eligible=*/true, /*admission=*/false,
      BlockCacheKey{BlockCacheOp::kConstruct,
                    static_cast<uint64_t>(options.tie_break), stream_salt},
      [&](const ProblemContext& cx) {
        return GreedyWithin(
            cx.conflict_graph(), cx.priority(), b.fact_list,
            ConstructOptions{options.tie_break, BlockStreamSeed(options, b.id)},
            cx.governor());
      },
      [](const std::optional<DynamicBitset>& repair,
         BlockSolveCache::Entry* entry) {
        if (!repair.has_value()) {
          return false;  // aborted pass
        }
        entry->repair_local = *repair;
        return true;
      },
      [](const BlockSolveCache::Entry& entry) {
        return std::optional<DynamicBitset>(entry.repair_local);
      });
}

}  // namespace

Result<DynamicBitset> TryConstructGloballyOptimalRepair(
    const ProblemContext& ctx, const ConstructOptions& options) {
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                    "construction relies on completion semantics, which "
                    "require conflict-bounded priorities (§2.3)");
  DynamicBitset out = ctx.blocks().free_facts();
  const FoldOutcome fold = FoldBlocks(
      ctx, nullptr,
      [&](const ProblemContext& cx, const Block& b) {
        return CachedGreedyBlock(cx, b, options);
      },
      [](const std::optional<DynamicBitset>& r) { return r.has_value(); },
      nullptr,
      [&](const Block& b, std::optional<DynamicBitset>& block_repair, bool) {
        if (!block_repair.has_value()) {
          return FoldStep::Stop();
        }
        OrBlockMask(b, *block_repair, &out);
        return FoldStep::Exact();
      });
  if (fold.stopped()) {
    Status status = ctx.governor().ToStatus();
    PREFREP_CHECK_MSG(!status.ok(),
                      "greedy pass aborted without an exhausted governor");
    return status;
  }
  if (audit::Enabled()) {
    // A resident context's instance may carry tombstoned facts outside
    // the solving universe; audit within it.
    audit::CheckConstructedRepair(cg, pr, out,
                                  "TryConstructGloballyOptimalRepair",
                                  ctx.blocks().CoveredFacts());
  }
  return out;
}

}  // namespace prefrep
