#include "conflicts/blocks.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace prefrep {

#if PREFREP_AUDIT_ENABLED
namespace {

// PREFREP_AUDIT hook: asserts the decomposition is a true partition of
// the fact universe refining the conflict graph's connected components.
// Lives here rather than in repair/audit.h because the conflicts layer
// sits below repair/ and must not include it.
void AuditDecomposition(const ConflictGraph& cg,
                        const std::vector<Block>& blocks,
                        const DynamicBitset& free_facts,
                        const std::vector<size_t>& block_of) {
  size_t n = cg.num_facts();
  // Partition: every fact is free xor belongs to exactly one block, and
  // block membership agrees with the block_of index.
  DynamicBitset covered = free_facts;
  free_facts.ForEach([&](size_t f) {
    PREFREP_CHECK_MSG(block_of[f] == BlockDecomposition::kNoBlock,
                      "audit: a conflict-free fact is indexed into a block");
    PREFREP_CHECK_MSG(cg.neighbors(static_cast<FactId>(f)).empty(),
                      "audit: a fact with conflicts was marked free");
  });
  for (const Block& b : blocks) {
    PREFREP_CHECK_MSG(b.size() >= 2,
                      "audit: a block must hold at least two facts");
    for (FactId f : b.fact_list) {
      PREFREP_CHECK_MSG(!covered.test(f),
                        "audit: blocks overlap each other or the free facts");
      covered.set(f);
      PREFREP_CHECK_MSG(block_of[f] == b.id,
                        "audit: block membership disagrees with block_of");
      PREFREP_CHECK_MSG(cg.instance().fact(f).rel == b.rel,
                        "audit: a block spans relations");
    }
    // Connectivity: a BFS inside the block reaches every block fact, so
    // the block is one component, not a union of several.
    DynamicBitset visited(n);
    std::vector<FactId> queue{b.fact_list.front()};
    visited.set(queue.front());
    size_t reached = 1;
    while (!queue.empty()) {
      FactId f = queue.back();
      queue.pop_back();
      for (FactId g : cg.neighbors(f)) {
        if (block_of[g] == b.id && !visited.test(g)) {
          visited.set(g);
          queue.push_back(g);
          ++reached;
        }
      }
    }
    PREFREP_CHECK_MSG(reached == b.size(),
                      "audit: a block is not a connected component");
  }
  PREFREP_CHECK_MSG(covered.count() == n,
                    "audit: blocks plus free facts do not cover the "
                    "instance");
  // Refinement: no conflict edge leaves a block.
  for (FactId f = 0; f < n; ++f) {
    for (FactId g : cg.neighbors(f)) {
      PREFREP_CHECK_MSG(block_of[f] == block_of[g] &&
                            block_of[f] != BlockDecomposition::kNoBlock,
                        "audit: a conflict edge crosses block boundaries");
    }
  }
}

}  // namespace
#endif  // PREFREP_AUDIT_ENABLED

BlockDecomposition::BlockDecomposition(const ConflictGraph& cg)
    : free_facts_(cg.num_facts()),
      block_of_(cg.num_facts(), kNoBlock),
      by_relation_(cg.instance().schema().num_relations()) {
  size_t n = cg.num_facts();
  const Instance& instance = cg.instance();
  // BFS from each unvisited non-isolated fact; scanning fact ids in
  // ascending order numbers blocks by their smallest member.
  std::vector<FactId> queue;
  for (FactId start = 0; start < n; ++start) {
    if (cg.neighbors(start).empty()) {
      free_facts_.set(start);
      continue;
    }
    if (block_of_[start] != kNoBlock) {
      continue;
    }
    Block block;
    block.id = blocks_.size();
    block.rel = instance.fact(start).rel;
    queue.clear();
    queue.push_back(start);
    block_of_[start] = block.id;
    size_t members = 0;
    while (!queue.empty()) {
      FactId f = queue.back();
      queue.pop_back();
      ++members;
      PREFREP_CHECK_MSG(instance.fact(f).rel == block.rel,
                        "conflict edges must be intra-relation");
      for (FactId g : cg.neighbors(f)) {
        if (block_of_[g] == kNoBlock) {
          block_of_[g] = block.id;
          queue.push_back(g);
        }
      }
    }
    block.fact_list.reserve(members);
    largest_block_ = std::max(largest_block_, members);
    by_relation_[block.rel].push_back(block.id);
    blocks_.push_back(std::move(block));
  }
  // One ascending pass lists every block's facts in order, with no sort.
  for (FactId f = 0; f < n; ++f) {
    if (block_of_[f] != kNoBlock) {
      blocks_[block_of_[f]].fact_list.push_back(f);
    }
  }
#if PREFREP_AUDIT_ENABLED
  AuditDecomposition(cg, blocks_, free_facts_, block_of_);
#endif
}

BlockDecomposition::BlockDecomposition(std::vector<Block> blocks,
                                       DynamicBitset free_facts,
                                       std::vector<size_t> block_of,
                                       size_t num_relations)
    : blocks_(std::move(blocks)),
      free_facts_(std::move(free_facts)),
      block_of_(std::move(block_of)),
      by_relation_(num_relations) {
  for (const Block& b : blocks_) {
    PREFREP_CHECK_MSG(b.id == static_cast<size_t>(&b - blocks_.data()),
                      "from-parts blocks must be numbered positionally");
    PREFREP_CHECK_MSG(b.rel < num_relations, "block relation out of range");
    largest_block_ = std::max(largest_block_, b.fact_list.size());
    by_relation_[b.rel].push_back(b.id);
  }
#if PREFREP_AUDIT_ENABLED
  // The partition/connectivity audit of the graph constructor needs the
  // conflict graph and a fully covered universe; here the session is
  // responsible (its PREFREP_AUDIT hook compares the whole incremental
  // state against a from-scratch rebuild).  Check the cheap local
  // invariants only.
  free_facts_.ForEach([&](size_t f) {
    PREFREP_CHECK_MSG(block_of_[f] == kNoBlock,
                      "audit: a free fact is indexed into a block");
  });
  for (const Block& b : blocks_) {
    PREFREP_CHECK_MSG(b.size() >= 2,
                      "audit: a block must hold at least two facts");
    PREFREP_CHECK_MSG(std::adjacent_find(b.fact_list.begin(),
                                         b.fact_list.end(),
                                         std::greater_equal<FactId>()) ==
                          b.fact_list.end(),
                      "audit: a block's fact list is not ascending");
    for (FactId f : b.fact_list) {
      PREFREP_CHECK_MSG(block_of_[f] == b.id,
                        "audit: block membership disagrees with block_of");
    }
  }
#endif
}

DynamicBitset BlockDecomposition::CoveredFacts() const {
  DynamicBitset covered = free_facts_;
  for (const Block& b : blocks_) {
    for (FactId f : b.fact_list) {
      covered.set(f);
    }
  }
  return covered;
}

bool PriorityIsBlockLocal(const BlockDecomposition& blocks,
                          const PriorityRelation& priority) {
  for (const auto& [higher, lower] : priority.edges()) {
    size_t b = blocks.block_of(higher);
    if (b == BlockDecomposition::kNoBlock || blocks.block_of(lower) != b) {
      return false;
    }
  }
  return true;
}

std::vector<FactId> AllFactIds(const ConflictGraph& cg) {
  std::vector<FactId> all(cg.num_facts());
  std::iota(all.begin(), all.end(), FactId{0});
  return all;
}

}  // namespace prefrep
