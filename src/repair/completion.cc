#include "repair/completion.h"

#include "repair/audit.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

CheckResult CheckCompletionOptimal(const ConflictGraph& cg,
                                   const PriorityRelation& pr,
                                   const DynamicBitset& j,
                                   const DynamicBitset* universe) {
  PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                    "completion semantics require conflict-bounded "
                    "priorities (§2.3)");
  if (!IsConsistent(cg, j)) {
    return CheckResult::NotOptimalNoWitness();
  }
  size_t n = cg.num_facts();
  DynamicBitset remaining(n);
  if (universe != nullptr) {
    remaining = *universe;  // dominators and conflicts never leave a block
  } else {
    remaining.set_all();
  }
  DynamicBitset picked(n);

  // Greedy fixpoint over J-facts.  Picking a pickable fact never blocks
  // another (deletions only shrink the set of potential dominators), so
  // the order of picks within a round is immaterial.
  bool changed = true;
  while (changed) {
    changed = false;
    for (FactId f = 0; f < n; ++f) {
      if (!j.test(f) || !remaining.test(f)) {
        continue;
      }
      bool blocked = false;
      for (FactId g : pr.DominatedBy(f)) {
        if (remaining.test(g)) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        continue;
      }
      picked.set(f);
      remaining.reset(f);
      for (FactId u : cg.neighbors(f)) {
        remaining.reset(u);
      }
      changed = true;
    }
  }
  const DynamicBitset target = universe != nullptr ? (j & *universe) : j;
  CheckResult result = picked == target && remaining.none()
                           ? CheckResult::Optimal()
                           : CheckResult::NotOptimalNoWitness();
  audit::CheckCompletionVerdict(cg, pr, j, universe, result);
  return result;
}

}  // namespace prefrep
