// Copyright (c) prefrep contributors.
// Block decomposition of a prioritizing instance.  A *block* is a
// connected component, with at least two facts, of the conflict graph
// joined with the priority edges between facts that have conflicts;
// facts with no conflicts at all ("free" facts) belong to every repair
// and form the conflict-free remainder.  A conflict-bounded priority
// (§2.3) only relates conflicting facts, so its blocks are the conflict
// components, each inside one relation; a cross-conflict priority (§7)
// may join blocks, of one relation or of two.  Priority edges touching
// a free fact are ignored: no improvement of a repair adds or removes a
// free fact.
//
// Blocks are the locality that makes divide-and-conquer sound: a
// subinstance is consistent / maximal iff each block restriction is,
// and no priority edge the solvers read leaves a block, so globally-,
// Pareto- and completion-optimality decompose block by block as well
// (see docs/algorithms.md, "Why blocks are sound").  Exponential
// fallbacks can therefore run per block — 2^{|block|} instead of 2^n —
// and repair counts multiply across blocks.

#ifndef PREFREP_CONFLICTS_BLOCKS_H_
#define PREFREP_CONFLICTS_BLOCKS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "conflicts/conflicts.h"
#include "priority/priority.h"

namespace prefrep {

/// One block (size ≥ 2): a connected component of the conflict graph
/// joined with the priority edges between facts that have conflicts.
///
/// Block coordinates: every per-block answer (an optimal block-repair,
/// a greedy block construction, a unique categorical block-repair, a
/// cached payload) is a *block mask* over `fact_list`, with bit i
/// standing for fact_list[i].  A mask is one word for a block of at
/// most 64 facts, which covers every block the exhaustive solver
/// admits, and a DynamicBitset of size() bits otherwise.  Answers stay
/// masks through the solvers and the block cache; ToBlockWord and
/// OrBlockMask convert at the API edge, where whole-instance bitsets
/// are built.
struct Block {
  /// Dense block id (position in BlockDecomposition::blocks()).
  size_t id = 0;
  /// The relation of the block's smallest fact.  Conflicts are
  /// intra-relation, so a block spans one relation unless a
  /// cross-conflict priority edge joined blocks of two relations;
  /// blocks_of_relation() lists a block under this relation only.
  RelId rel = kInvalidRelId;
  /// The block's facts, ascending: its one representation, and the
  /// coordinates of every block mask.
  std::vector<FactId> fact_list;

  size_t size() const { return fact_list.size(); }
};

/// Position of `f` in the ascending list `facts` (its bit in a mask
/// over the list), or SIZE_MAX when `f` is not listed.  O(log |facts|).
inline size_t PositionIn(const std::vector<FactId>& facts, FactId f) {
  auto it = std::lower_bound(facts.begin(), facts.end(), f);
  if (it == facts.end() || *it != f) {
    return SIZE_MAX;
  }
  return static_cast<size_t>(it - facts.begin());
}

/// Every fact id of `cg`'s instance, ascending: the list whole-instance
/// callers pass to the list-based algorithms, and the one list whose
/// masks are whole-instance bitsets (position i is fact i).
std::vector<FactId> AllFactIds(const ConflictGraph& cg);

/// The block mask of global ∩ b as one word.  Requires b.size() ≤ 64.
inline uint64_t ToBlockWord(const Block& b, const DynamicBitset& global) {
  PREFREP_DCHECK(b.size() <= 64);
  uint64_t mask = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    if (global.test(b.fact_list[i])) {
      mask |= uint64_t{1} << i;
    }
  }
  return mask;
}

/// ORs a block mask into the whole-instance bitset `global`: sets the
/// facts the mask names.  The word form requires b.size() ≤ 64; the
/// bitset form takes a mask of b.size() bits.  Inline: the cross-block
/// product of AllOptimalRepairs calls it once per member.
inline void OrBlockMask(const Block& b, uint64_t mask, DynamicBitset* global) {
  PREFREP_DCHECK(b.size() <= 64);
  for (; mask != 0; mask &= mask - 1) {
    global->set(b.fact_list[static_cast<size_t>(__builtin_ctzll(mask))]);
  }
}
inline void OrBlockMask(const Block& b, const DynamicBitset& mask,
                        DynamicBitset* global) {
  PREFREP_DCHECK(mask.size() == b.size());
  mask.ForEach([&](size_t i) { global->set(b.fact_list[i]); });
}

/// Calls fn(g) for every fact g that one edge puts in f's block: f's
/// conflict neighbours and, unless `priority` is conflict-bounded, the
/// facts with conflicts that a priority edge links to f, in either
/// orientation.  A fact without conflicts links to nothing.  The one
/// home of the join rule: the decomposition, its audit and a resident
/// session's upkeep (serve/session.cc) all follow it.
template <typename Fn>
void ForEachBlockLink(const ConflictGraph& cg,
                      const PriorityRelation& priority, FactId f, Fn&& fn) {
  const std::vector<FactId>& conflicts = cg.neighbors(f);
  if (conflicts.empty()) {
    return;
  }
  for (FactId g : conflicts) {
    fn(g);
  }
  if (priority.IsConflictBounded()) {
    return;  // every edge joins conflicting facts, which share a block
  }
  for (const std::vector<FactId>* partners :
       {&priority.Dominates(f), &priority.DominatedBy(f)}) {
    for (FactId g : *partners) {
      if (!cg.neighbors(g).empty()) {
        fn(g);
      }
    }
  }
}

/// The partition of an instance's facts into blocks plus the
/// conflict-free remainder.  Deterministic: blocks are numbered by their
/// smallest fact id, fact lists are ascending.
class BlockDecomposition {
 public:
  /// Sentinel returned by block_of() for free (isolated) facts.
  static constexpr size_t kNoBlock = SIZE_MAX;

  /// Builds the decomposition of `cg`'s instance under `priority` (a
  /// relation over the same instance) in O(facts + conflicts), plus
  /// O(priority edges) when the priority is not conflict-bounded: only
  /// then can a priority edge join two blocks, so a conflict-bounded
  /// priority's decomposition is that of its conflict graph.
  BlockDecomposition(const ConflictGraph& cg,
                     const PriorityRelation& priority);

  /// Assembles a decomposition from parts computed elsewhere: the serve
  /// layer (src/serve/session.cc) maintains blocks incrementally under
  /// edits and re-materializes this view instead of rebuilding from the
  /// graph.  `blocks` must be numbered positionally (blocks[i].id == i,
  /// which the canonical numbering-by-smallest-fact-id ordering gives)
  /// with ascending fact lists; `block_of` maps
  /// every fact to its block id, kNoBlock otherwise.  Unlike the graph
  /// constructor, full cover of the id universe is NOT assumed: ids that
  /// are neither free nor in a block are tombstoned (deleted) facts the
  /// session excludes from the live universe.
  BlockDecomposition(std::vector<Block> blocks, DynamicBitset free_facts,
                     std::vector<size_t> block_of, size_t num_relations);

  size_t num_blocks() const { return blocks_.size(); }
  const std::vector<Block>& blocks() const { return blocks_; }

  const Block& block(size_t b) const {
    PREFREP_CHECK_MSG(b < blocks_.size(), "block id out of range");
    return blocks_[b];
  }

  /// Facts with no conflicts; members of every repair.
  const DynamicBitset& free_facts() const { return free_facts_; }

  /// The facts the decomposition covers, free or in a block: every fact
  /// of a graph-built decomposition, and the live facts of an assembled
  /// one, whose tombstoned ids are neither.
  DynamicBitset CoveredFacts() const;

  /// Block id of a fact, or kNoBlock if the fact is free.
  size_t block_of(FactId f) const {
    PREFREP_CHECK_MSG(f < block_of_.size(), "fact id out of range");
    return block_of_[f];
  }

  /// Ids of the blocks whose `rel` is `rel`, ascending.
  const std::vector<size_t>& blocks_of_relation(RelId rel) const {
    PREFREP_CHECK_MSG(rel < by_relation_.size(), "relation id out of range");
    return by_relation_[rel];
  }

  /// Size of the largest block (0 when the instance is conflict-free).
  size_t largest_block() const { return largest_block_; }

 private:
  std::vector<Block> blocks_;
  DynamicBitset free_facts_;
  std::vector<size_t> block_of_;
  std::vector<std::vector<size_t>> by_relation_;
  size_t largest_block_ = 0;
};

}  // namespace prefrep

#endif  // PREFREP_CONFLICTS_BLOCKS_H_
