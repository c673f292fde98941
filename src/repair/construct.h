// Copyright (c) prefrep contributors.
// Constructing preferred repairs (as opposed to checking them).
//
// A corollary the framework gives for free: completion-optimal repairs
// are globally-optimal and Pareto-optimal ([SCM]; inclusions verified
// in this library's tests), and the greedy procedure produces a
// completion-optimal repair in polynomial time for *every* schema.  So
// although globally-optimal repair *checking* is coNP-complete on the
// hard side of Theorem 3.1, *finding some* globally-optimal repair is
// always polynomial — checking is the hard direction, not construction.
//
// This module packages that corollary, with tie-breaking policies that
// choose among the (possibly many) optimal repairs.  Conflict-bounded
// priorities only (completion semantics, §2.3).

#ifndef PREFREP_REPAIR_CONSTRUCT_H_
#define PREFREP_REPAIR_CONSTRUCT_H_

#include <optional>
#include <vector>

#include "model/context.h"
#include "repair/improvement.h"

namespace prefrep {

/// How the greedy construction breaks ties among currently ≻-maximal
/// facts.
enum class TieBreak {
  /// Lowest fact id first — deterministic, stable across runs.
  kFirstFact,
  /// Seeded pseudo-random choice — explores different optimal repairs.
  kRandom,
  /// Facts with the most dominated facts first — greedily maximizes the
  /// "authority" of kept facts.
  kMostDominating,
};

/// Options for TryConstructGloballyOptimalRepair and GreedyWithin.
struct ConstructOptions {
  TieBreak tie_break = TieBreak::kFirstFact;
  uint64_t seed = 1;  ///< used by TieBreak::kRandom
};

/// One greedy pass over `facts` (ascending: a block's fact_list, or
/// AllFactIds(cg) for the whole instance): repeatedly keeps a ≻-maximal
/// remaining fact, chosen by `options.tie_break` (kRandom draws from
/// Rng(options.seed)), and drops its conflicts.  Returns the kept facts
/// as a mask over `facts` (bit i = facts[i]; for AllFactIds(cg) that is
/// the whole-instance bitset).  Conflict-bounded priorities keep both
/// dominators and conflicts inside a block, so a pass over one block
/// reads its list only.  Checkpoints on `governor` once per pick;
/// nullopt when the budget fires (the partial mask would not be a
/// maximal repair).
std::optional<DynamicBitset> GreedyWithin(const ConflictGraph& cg,
                                          const PriorityRelation& pr,
                                          const std::vector<FactId>& facts,
                                          const ConstructOptions& options,
                                          ResourceGovernor& governor);

/// Builds a repair of (I, ≻) that is completion-optimal — hence
/// globally-optimal and Pareto-optimal — in O(n²) time, for any schema.
/// Requires a conflict-bounded priority (checked).  The conflict-free
/// facts are kept outright and the greedy runs block by block through
/// FoldBlocks, in parallel when ctx.parallelism() allows.  Greedy picks
/// never cross a block, so kFirstFact and kMostDominating build the
/// repair one whole-instance pass would; kRandom derives each block's
/// draw stream from (seed, block id), so its repair is the same at every
/// thread count.  Checkpoints on ctx.governor() once per greedy pick and
/// returns kDeadlineExceeded/kResourceExhausted instead of a repair when
/// the budget fires mid-pass; under an ungoverned context it always
/// succeeds.  The budget only matters for huge instances or very tight
/// budgets shared with preceding exponential work; a cancelled pass
/// never returns a torn (partially built, non-maximal) bitset.
Result<DynamicBitset> TryConstructGloballyOptimalRepair(
    const ProblemContext& ctx, const ConstructOptions& options = {});

}  // namespace prefrep

#endif  // PREFREP_REPAIR_CONSTRUCT_H_
