// Copyright (c) prefrep contributors.
// The repair walk behind every exhaustive baseline.  A consistent
// subinstance is an independent set of the conflict graph, so the
// repairs of a universe (its maximal consistent subsets, §2.2) are the
// maximal cliques of the complement graph, which Bron–Kerbosch with
// pivoting enumerates.  Scanning repairs is complete for Definition
// 2.4's improvements [SCM], which is why the exhaustive checker,
// counter and enumerator all stand on this one walk.
//
// The walk runs in universe-local coordinates on flat 64-bit words:
//
//   * RepairWalkTable relabels the universe's members to dense indices
//     0..c-1 (ascending fact id, so local order is global order) and
//     stores every member's compatible set — the members it does not
//     conflict with — as one ⌈c/64⌉-word row of a flat table;
//   * RepairWalk keeps P, X and the candidate set of every search depth
//     in one arena allocated with the walk, so a search node allocates
//     nothing: intersections, pivot scores (popcounts of row ∧ P) and
//     the candidate scan are word loops over that arena.
//
// A universe of at most 64 members runs the same body with the word
// count fixed at one; that covers every block the governor admits
// (ResourceGovernor::kMaxExhaustiveBlockFacts).  Wider universes — the
// whole-instance fallbacks and the `cqa repairs` stream — take the
// runtime word count.
//
// The search order is fixed: the pivot is the first vertex of P ∪ X, in
// ascending order, with a strictly best score; candidates are taken in
// ascending order; and the governor sees exactly one Checkpoint() per
// search node.  Governed degradation, node accounting and the parallel
// replay all rely on that order being the same on every run.

#ifndef PREFREP_REPAIR_REPAIR_WALK_H_
#define PREFREP_REPAIR_REPAIR_WALK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/governor.h"
#include "conflicts/conflicts.h"

namespace prefrep {

namespace repair_walk_internal {

// Sets bits 0..n-1 of the `words`-word set at `set` and clears the rest.
inline void FillPrefix(uint64_t* set, size_t words, size_t n) {
  for (size_t i = 0; i < words; ++i) {
    const size_t low = i * 64;
    set[i] = n >= low + 64 ? ~uint64_t{0}
             : n > low     ? (uint64_t{1} << (n - low)) - 1
                           : 0;
  }
}

}  // namespace repair_walk_internal

/// The compatibility table of one universe.  Member i is the i-th
/// smallest fact of the universe; row(i) holds, as words() 64-bit
/// words, the members that do not conflict with member i (member i
/// itself excluded).  Immutable once built, so one table can serve
/// several walks, nested ones included.
class RepairWalkTable {
 public:
  /// `members` must be ascending and free of duplicates.
  RepairWalkTable(const ConflictGraph& cg, std::vector<FactId> members);

  /// Number of members (c).
  size_t size() const { return members_.size(); }

  /// Words per row and per walk set: ⌈c/64⌉, and at least one.
  size_t words() const { return words_; }

  const std::vector<FactId>& members() const { return members_; }

  const uint64_t* row(size_t i) const { return rows_.data() + i * words_; }

 private:
  std::vector<FactId> members_;
  size_t words_;
  std::vector<uint64_t> rows_;
};

/// One walk over a RepairWalkTable: the arena of per-depth P, X and
/// candidate sets plus the current clique R.  Reusable for any number
/// of consecutive walks of its table; a walk nested inside another
/// one's leaf needs a RepairWalk of its own.
class RepairWalk {
 public:
  explicit RepairWalk(const RepairWalkTable& table);

  /// Enumerates the maximal consistent subsets of the table's universe
  /// in the fixed search order, calling `leaf(r)` for each, where `r`
  /// points at the subset as words() local words.  One
  /// `governor.Checkpoint()` per search node; the walk stops when a
  /// checkpoint is refused or `leaf` returns false, and then returns
  /// false.  `use_pivot = false` is Bron–Kerbosch without pivoting (the
  /// ablation baseline): same repairs, more nodes.
  template <typename Leaf>
  bool Run(ResourceGovernor& governor, bool use_pivot, Leaf&& leaf) {
    governor_ = &governor;
    use_pivot_ = use_pivot;
    const size_t w = table_->words();
    // R and X start empty, P holds every member.
    std::fill(arena_.begin(), arena_.begin() + 3 * w, 0);
    repair_walk_internal::FillPrefix(Level(0), w, table_->size());
    if (w == 1) {
      return Recurse<1>(0, leaf);
    }
    return Recurse<0>(0, leaf);
  }

 private:
  // Level d of the arena holds P, X and the candidates of depth d, one
  // words()-word set each; R sits in front of level 0.
  uint64_t* Level(size_t depth) {
    return arena_.data() + table_->words() * (1 + 3 * depth);
  }

  // Grows the arena to at least `levels` levels (doubling).  Only a
  // universe of more than 64 members can outgrow the initial arena.
  void EnsureLevels(size_t levels);

  static size_t LowestBit(uint64_t bits) {
    return static_cast<size_t>(__builtin_ctzll(bits));
  }

  // kWords is the word count, or 0 for the table's runtime word count.
  template <size_t kWords, typename Leaf>
  bool Recurse(size_t depth, Leaf& leaf) {
    if (!governor_->Checkpoint()) {
      return false;
    }
    const size_t w = kWords != 0 ? kWords : table_->words();
    uint64_t* level = Level(depth);
    const uint64_t* p = level;
    const uint64_t* x = level + w;
    uint64_t* candidates = level + 2 * w;
    uint64_t open = 0;
    for (size_t i = 0; i < w; ++i) {
      open |= p[i] | x[i];
    }
    if (open == 0) {
      return leaf(static_cast<const uint64_t*>(arena_.data()));
    }
    for (size_t i = 0; i < w; ++i) {
      candidates[i] = p[i];
    }
    if (use_pivot_) {
      // Pivot: the vertex of P ∪ X with the most compatible members in
      // P minimizes the branching P \ compatible(pivot).
      size_t pivot = 0;
      size_t best = 0;
      bool have_pivot = false;
      for (size_t i = 0; i < w; ++i) {
        for (uint64_t bits = p[i] | x[i]; bits != 0; bits &= bits - 1) {
          const size_t u = i * 64 + LowestBit(bits);
          const uint64_t* row = table_->row(u);
          size_t score = 0;
          for (size_t k = 0; k < w; ++k) {
            score += static_cast<size_t>(__builtin_popcountll(p[k] & row[k]));
          }
          if (!have_pivot || score > best) {
            have_pivot = true;
            best = score;
            pivot = u;
          }
        }
      }
      const uint64_t* row = table_->row(pivot);
      for (size_t i = 0; i < w; ++i) {
        candidates[i] &= ~row[i];
      }
    }
    if (depth + 2 > levels_) {
      EnsureLevels(depth + 2);
    }
    for (size_t i = 0; i < w; ++i) {
      for (uint64_t bits = Level(depth)[2 * w + i]; bits != 0;
           bits &= bits - 1) {
        const size_t v = i * 64 + LowestBit(bits);
        const uint64_t bit = uint64_t{1} << (v % 64);
        uint64_t* here = Level(depth);
        uint64_t* child = Level(depth + 1);
        const uint64_t* row = table_->row(v);
        for (size_t k = 0; k < w; ++k) {
          child[k] = here[k] & row[k];
          child[w + k] = here[w + k] & row[k];
        }
        arena_[v / 64] |= bit;
        const bool keep_going = Recurse<kWords>(depth + 1, leaf);
        arena_[v / 64] &= ~bit;
        here = Level(depth);  // a deeper level may have moved the arena
        here[v / 64] &= ~bit;
        here[w + v / 64] |= bit;
        if (!keep_going) {
          return false;
        }
      }
    }
    return true;
  }

  const RepairWalkTable* table_;
  ResourceGovernor* governor_ = nullptr;
  bool use_pivot_ = true;
  size_t levels_ = 0;
  std::vector<uint64_t> arena_;
};

}  // namespace prefrep

#endif  // PREFREP_REPAIR_REPAIR_WALK_H_
