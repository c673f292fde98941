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

#include <cstddef>
#include <vector>

#include "conflicts/conflicts.h"
#include "priority/priority.h"

namespace prefrep {

/// One connected component (size ≥ 2) of the conflict graph.
struct Block {
  /// Dense block id (position in BlockDecomposition::blocks()).
  size_t id = 0;
  /// The relation all facts of this block belong to (conflicts are
  /// intra-relation, so a block never spans relations).
  RelId rel = kInvalidRelId;
  /// Facts of the block as a full-universe bitset (for set algebra).
  DynamicBitset facts;
  /// The same facts as a sorted id list (for iteration).
  std::vector<FactId> fact_list;

  size_t size() const { return fact_list.size(); }
};

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
  /// with ascending fact lists matching the bitsets; `block_of` maps
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

/// True iff every priority edge at a fact of `b` joins two facts of `b`:
/// PriorityIsBlockLocal restricted to one block.
bool PriorityStaysInBlock(const Block& b, const PriorityRelation& priority);

}  // namespace prefrep

#endif  // PREFREP_CONFLICTS_BLOCKS_H_
