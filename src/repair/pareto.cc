// Pareto-optimal repair checking (§2.4, §3): polynomial for every schema,
// by searching for a Pareto improvement set directly.
#include "repair/pareto.h"

#include "conflicts/blocks.h"
#include "repair/audit.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

CheckResult FindParetoImprovement(const ConflictGraph& cg,
                                  const PriorityRelation& pr,
                                  const DynamicBitset& j,
                                  const std::vector<FactId>& facts) {
  PREFREP_CHECK_MSG(IsConsistent(cg, j),
                    "FindParetoImprovement requires a consistent J");
  const Instance& instance = cg.instance();
  for (FactId g : facts) {
    if (j.test(g)) {
      continue;
    }
    // g improves J iff g ≻ f for every f ∈ J conflicting with g.
    bool improves = true;
    for (FactId f : cg.neighbors(g)) {
      if (j.test(f) && !pr.Prefers(g, f)) {
        improves = false;
        break;
      }
    }
    if (!improves) {
      continue;
    }
    DynamicBitset improvement = j;
    for (FactId f : cg.neighbors(g)) {
      if (j.test(f)) {
        improvement.reset(f);
      }
    }
    improvement.set(g);
    CheckResult result = CheckResult::NotOptimal(
        std::move(improvement),
        "fact " + instance.FactToString(g) +
            " is preferred over every fact of J it conflicts with");
    audit::CheckParetoWitness(cg, pr, j, result);
    return result;
  }
  return CheckResult::Optimal();
}

CheckResult CheckParetoOptimal(const ConflictGraph& cg,
                               const PriorityRelation& pr,
                               const DynamicBitset& j) {
  if (!IsConsistent(cg, j)) {
    return CheckResult::NotOptimalNoWitness();  // not even a repair
  }
  CheckResult improvement = FindParetoImprovement(cg, pr, j, AllFactIds(cg));
  if (!improvement.optimal) {
    return improvement;
  }
  return CheckResult::Optimal();
}

}  // namespace prefrep
