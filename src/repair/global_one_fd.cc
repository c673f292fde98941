// Polynomial g-repair checking for single-FD relations — the first
// tractable case of Theorem 3.1, via the block-swap argument of Lemma 4.2.
#include "repair/global_one_fd.h"

#include <algorithm>

#include "conflicts/conflicts.h"
#include "conflicts/projection.h"

namespace prefrep {

namespace {

// The A∪B, A and B column tables of the swapped FD A → B.
struct SwapProjections {
  explicit SwapProjections(const FD& fd)
      : ab(AttrOffsets::Build(fd.lhs | fd.rhs)),
        lhs(AttrOffsets::Build(fd.lhs)),
        rhs(AttrOffsets::Build(fd.rhs)) {}

  AttrOffsets ab;
  AttrOffsets lhs;
  AttrOffsets rhs;
};

// What J[f↔g] does to a fact list, in list order.  The vectors are
// reused across the swaps of one check.
struct SwapEffect {
  std::vector<FactId> removed;  ///< J-facts agreeing with f on A∪B
  std::vector<FactId> added;    ///< non-J facts agreeing with g on A∪B
  /// Some kept J-fact agrees with g on A and differs on B, i.e.
  /// conflicts with every added fact.
  bool clash = false;
};

// One pass over `facts` classifies every listed fact for J[f↔g].
void ComputeSwap(const Instance& instance, const SwapProjections& p,
                 const std::vector<FactId>& facts, const DynamicBitset& j,
                 FactId f, FactId g, SwapEffect* out) {
  out->removed.clear();
  out->added.clear();
  out->clash = false;
  const ValueId* f_row = instance.row(f);
  const ValueId* g_row = instance.row(g);
  for (FactId h : facts) {
    const ValueId* row = instance.row(h);
    if (!j.test(h)) {
      if (RowsEqualOn(row, g_row, p.ab)) {
        out->added.push_back(h);
      }
    } else if (RowsEqualOn(row, f_row, p.ab)) {
      out->removed.push_back(h);
    } else if (RowsEqualOn(row, g_row, p.lhs) &&
               !RowsEqualOn(row, g_row, p.rhs)) {
      out->clash = true;
    }
  }
}

// Definition 2.4 on the list, for a J consistent there: the swapped
// candidate differs from J, is consistent, and every removed fact has a
// dominator among the added ones.  Kept J-facts are pairwise consistent
// and added facts agree on A∪B, so only a kept/added clash could make
// the candidate inconsistent; none occurs for a consistent J (a kept
// J-fact agreeing with g on A agrees with f on A, hence on B, and so
// was removed), and testing it costs one compare per kept fact.
// `added` is ascending because fact lists are.
bool ImprovesOnList(const PriorityRelation& pr, const SwapEffect& s) {
  if (s.removed.empty() && s.added.empty()) {
    return false;
  }
  if (s.clash && !s.added.empty()) {
    return false;
  }
  for (FactId removed : s.removed) {
    const std::vector<FactId>& dominators = pr.DominatedBy(removed);
    if (std::none_of(dominators.begin(), dominators.end(), [&](FactId d) {
          return std::binary_search(s.added.begin(), s.added.end(), d);
        })) {
      return false;
    }
  }
  return true;
}

DynamicBitset ApplySwap(const DynamicBitset& j, const SwapEffect& s) {
  DynamicBitset out = j;
  for (FactId h : s.removed) {
    out.reset(h);
  }
  for (FactId h : s.added) {
    out.set(h);
  }
  return out;
}

}  // namespace

DynamicBitset SwapBlocks(const Instance& instance, const FD& fd,
                         const std::vector<FactId>& facts,
                         const DynamicBitset& j, FactId f, FactId g) {
  PREFREP_CHECK_MSG(j.test(f), "SwapBlocks requires f ∈ J");
  const Fact ff = instance.fact(f);
  const Fact gg = instance.fact(g);
  PREFREP_CHECK_MSG(ff.rel == gg.rel,
                    "SwapBlocks requires f, g to lie in one relation");
  PREFREP_CHECK_MSG(IsDeltaConflict(ff, gg, fd),
                    "SwapBlocks requires f, g to form a δ-conflict");
  SwapEffect effect;
  ComputeSwap(instance, SwapProjections(fd), facts, j, f, g, &effect);
  return ApplySwap(j, effect);
}

CheckResult CheckGlobalOptimalOneFd(const ConflictGraph& cg,
                                    const PriorityRelation& pr, const FD& fd,
                                    const std::vector<FactId>& facts,
                                    const DynamicBitset& j) {
  const Instance& instance = cg.instance();

  // Reject a J that is not even a repair of the list.  Consistency: no
  // two listed J-facts may conflict (∆|rel ≡ {fd}, and the list is
  // closed under conflicts, so this is consistency w.r.t. ∆|rel there).
  for (FactId f : facts) {
    if (!j.test(f)) {
      continue;
    }
    for (FactId g : cg.neighbors(f)) {
      if (g > f && j.test(g)) {
        return CheckResult::NotOptimalNoWitness();  // J inconsistent: no repair
      }
    }
  }
  // Maximality: any addable fact yields a (superset) global improvement.
  for (FactId g : facts) {
    if (j.test(g)) {
      continue;
    }
    if (!cg.ConflictsWithSet(g, j)) {
      DynamicBitset improvement = j;
      improvement.set(g);
      return CheckResult::NotOptimal(
          std::move(improvement),
          "J is not maximal: " + instance.FactToString(g) +
              " can be added without conflict");
    }
  }

  // GRepCheck1FD (Figure 2): try every swap J[f↔g] over conflicting
  // f ∈ J, g ∉ J, each decided on the list alone.
  const SwapProjections projections(fd);
  SwapEffect effect;
  for (FactId f : facts) {
    if (!j.test(f)) {
      continue;
    }
    for (FactId g : cg.neighbors(f)) {
      if (j.test(g)) {
        continue;
      }
      ComputeSwap(instance, projections, facts, j, f, g, &effect);
      if (ImprovesOnList(pr, effect)) {
        return CheckResult::NotOptimal(
            ApplySwap(j, effect),
            "J[" + instance.FactToString(f) + " ↔ " +
                instance.FactToString(g) + "] is a global improvement");
      }
    }
  }
  return CheckResult::Optimal();
}

CheckResult CheckGlobalOptimalOneFd(const ConflictGraph& cg,
                                    const PriorityRelation& pr, RelId rel,
                                    const FD& fd, const DynamicBitset& j) {
  return CheckGlobalOptimalOneFd(cg, pr, fd, cg.instance().facts_of(rel), j);
}

}  // namespace prefrep
