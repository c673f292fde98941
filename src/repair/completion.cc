#include "repair/completion.h"

#include "conflicts/blocks.h"
#include "repair/audit.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

CheckResult CheckCompletionOptimal(const ConflictGraph& cg,
                                   const PriorityRelation& pr,
                                   const DynamicBitset& j,
                                   const std::vector<FactId>& facts) {
  PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                    "completion semantics require conflict-bounded "
                    "priorities (§2.3)");
  if (!IsConsistent(cg, j)) {
    return CheckResult::NotOptimalNoWitness();
  }
  // Masks over `facts`: dominators and conflicts never leave a block,
  // and a fact outside the list is never remaining.
  const size_t c = facts.size();
  DynamicBitset remaining(c);
  remaining.set_all();
  DynamicBitset picked(c);

  // Greedy fixpoint over J-facts.  Picking a pickable fact never blocks
  // another (deletions only shrink the set of potential dominators), so
  // the order of picks within a round is immaterial.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < c; ++i) {
      if (!j.test(facts[i]) || !remaining.test(i)) {
        continue;
      }
      bool blocked = false;
      for (FactId g : pr.DominatedBy(facts[i])) {
        const size_t k = PositionIn(facts, g);
        if (k != SIZE_MAX && remaining.test(k)) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        continue;
      }
      picked.set(i);
      remaining.reset(i);
      for (FactId u : cg.neighbors(facts[i])) {
        const size_t k = PositionIn(facts, u);
        if (k != SIZE_MAX) {
          remaining.reset(k);
        }
      }
      changed = true;
    }
  }
  // The picks must be exactly J ∩ facts, and the deletions must clear
  // the rest.
  bool optimal = remaining.none();
  for (size_t i = 0; optimal && i < c; ++i) {
    optimal = picked.test(i) == j.test(facts[i]);
  }
  CheckResult result = optimal ? CheckResult::Optimal()
                               : CheckResult::NotOptimalNoWitness();
  audit::CheckCompletionVerdict(cg, pr, j, facts, result);
  return result;
}

}  // namespace prefrep
