// Copyright (c) prefrep contributors.
// Block decomposition of a conflict graph.  A *block* is a connected
// component of the conflict graph with at least two facts; facts with no
// conflicts at all ("free" facts) belong to every repair and form the
// conflict-free remainder.  Since FDs relate facts of one relation only,
// every block lies entirely inside a single relation.
//
// Blocks are the locality that makes divide-and-conquer sound: a
// subinstance is consistent / maximal iff each block restriction is, and
// when the priority relates only facts of the same block (always true
// for conflict-bounded priorities, §2.3), globally-, Pareto- and
// completion-optimality decompose block by block as well (see
// docs/algorithms.md, "Why blocks are sound").  Exponential fallbacks
// can therefore run per block — 2^{|block|} instead of 2^n — and
// repair counts multiply across blocks.

#ifndef PREFREP_CONFLICTS_BLOCKS_H_
#define PREFREP_CONFLICTS_BLOCKS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "conflicts/conflicts.h"
#include "priority/priority.h"

namespace prefrep {

/// One connected component (size ≥ 2) of the conflict graph.
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
  /// The relation all facts of this block belong to (conflicts are
  /// intra-relation, so a block never spans relations).
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

/// The partition of an instance's facts into conflict blocks plus the
/// conflict-free remainder.  Deterministic: blocks are numbered by their
/// smallest fact id, fact lists are ascending.
class BlockDecomposition {
 public:
  /// Sentinel returned by block_of() for free (isolated) facts.
  static constexpr size_t kNoBlock = SIZE_MAX;

  /// Builds the decomposition in O(facts + conflicts).
  explicit BlockDecomposition(const ConflictGraph& cg);

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

  /// Ids of the blocks lying inside relation `rel`, ascending.
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

/// True iff every priority edge joins two facts of the same block.
/// Conflict-bounded priorities always qualify (priority edges join
/// conflicting facts, and conflicting facts share a block); a
/// cross-conflict priority qualifies exactly when no edge crosses blocks
/// or touches a free fact.  Block-local priorities are what make
/// per-block optimality checking sound for *every* semantics.
bool PriorityIsBlockLocal(const BlockDecomposition& blocks,
                          const PriorityRelation& priority);

}  // namespace prefrep

#endif  // PREFREP_CONFLICTS_BLOCKS_H_
