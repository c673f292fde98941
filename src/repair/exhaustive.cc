// Exponential baselines that apply Definition 2.4 literally — repair
// enumeration plus improvement search.  Correct for every schema; used
// beyond Theorem 3.1's tractable cases and by the PREFREP_AUDIT checks.
#include "repair/exhaustive.h"

#include "conflicts/blocks.h"
#include "repair/completion.h"
#include "repair/repair_walk.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

namespace {

// Walks the repairs of `facts` (repair/repair_walk.h) and hands each to
// `fn` as a full-universe bitset.  The bitset is synced from the walk's
// local words at each leaf, flipping only the members that changed
// since the previous leaf.
void WalkFacts(const ConflictGraph& cg, std::vector<FactId> facts,
               ResourceGovernor& governor, bool use_pivot,
               const std::function<bool(const DynamicBitset&)>& fn) {
  const RepairWalkTable table(cg, std::move(facts));
  RepairWalk walk(table);
  DynamicBitset repair(cg.num_facts());
  std::vector<uint64_t> shown(table.words(), 0);  // local words of `repair`
  walk.Run(governor, use_pivot, [&](const uint64_t* r) {
    for (size_t w = 0; w < shown.size(); ++w) {
      for (uint64_t diff = shown[w] ^ r[w]; diff != 0; diff &= diff - 1) {
        const size_t i = w * 64 + static_cast<size_t>(__builtin_ctzll(diff));
        repair.set(table.members()[i], ((r[w] >> (i % 64)) & 1) != 0);
      }
      shown[w] = r[w];
    }
    return fn(repair);
  });
}

}  // namespace

void ForEachRepair(const ConflictGraph& cg,
                   const std::function<bool(const DynamicBitset&)>& fn) {
  WalkFacts(cg, AllFactIds(cg), ResourceGovernor::Unlimited(),
            /*use_pivot=*/true, fn);
}

void ForEachRepairNoPivot(
    const ConflictGraph& cg,
    const std::function<bool(const DynamicBitset&)>& fn) {
  WalkFacts(cg, AllFactIds(cg), ResourceGovernor::Unlimited(),
            /*use_pivot=*/false, fn);
}

void ForEachRepair(const ConflictGraph& cg, ResourceGovernor& governor,
                   const std::function<bool(const DynamicBitset&)>& fn) {
  WalkFacts(cg, AllFactIds(cg), governor, /*use_pivot=*/true, fn);
}

void ForEachRepairWithin(
    const ConflictGraph& cg, const std::vector<FactId>& facts,
    const std::function<bool(const DynamicBitset&)>& fn) {
  WalkFacts(cg, facts, ResourceGovernor::Unlimited(), /*use_pivot=*/true,
            fn);
}

void ForEachRepairWithin(
    const ConflictGraph& cg, const std::vector<FactId>& facts,
    ResourceGovernor& governor,
    const std::function<bool(const DynamicBitset&)>& fn) {
  WalkFacts(cg, facts, governor, /*use_pivot=*/true, fn);
}

std::vector<DynamicBitset> AllRepairs(const ConflictGraph& cg) {
  std::vector<DynamicBitset> out;
  ForEachRepair(cg, [&](const DynamicBitset& repair) {
    out.push_back(repair);
    return true;
  });
  return out;
}

std::vector<DynamicBitset> AllRepairsWithin(const ConflictGraph& cg,
                                            const std::vector<FactId>& facts) {
  std::vector<DynamicBitset> out;
  ForEachRepairWithin(cg, facts, [&](const DynamicBitset& repair) {
    out.push_back(repair);
    return true;
  });
  return out;
}

uint64_t CountRepairs(const ConflictGraph& cg) {
  uint64_t count = 0;
  ForEachRepair(cg, [&](const DynamicBitset&) {
    ++count;
    return true;
  });
  return count;
}

namespace {

// Shared scan for both semantics.  A found improvement is returned as a
// definite kNo regardless of the budget; a scan cut short by the budget
// downgrades the provisional kYes to kUnknown — never a false positive.
CheckResult ExhaustiveCheckImpl(const ConflictGraph& cg,
                                const PriorityRelation& pr,
                                const DynamicBitset& j,
                                ResourceGovernor& governor, bool pareto) {
  if (!IsConsistent(cg, j)) {
    return CheckResult::NotOptimalNoWitness();
  }
  if (std::optional<FactId> ext = FindExtension(cg, j)) {
    DynamicBitset improvement = j;
    improvement.set(*ext);
    return CheckResult::NotOptimal(std::move(improvement),
                                   "J is not maximal");
  }
  CheckResult result = CheckResult::Optimal();
  ForEachRepair(cg, governor, [&](const DynamicBitset& candidate) {
    const bool improves = pareto ? IsParetoImprovement(cg, pr, j, candidate)
                                 : IsGlobalImprovement(cg, pr, j, candidate);
    if (improves) {
      result = CheckResult::NotOptimal(
          candidate, pareto ? "an enumerated repair Pareto-improves J"
                            : "an enumerated repair improves J");
      return false;
    }
    return true;
  });
  if (result.optimal && governor.exhausted()) {
    return CheckResult::Unknown(governor.CauseString());
  }
  return result;
}

}  // namespace

CheckResult ExhaustiveCheckGlobalOptimal(const ConflictGraph& cg,
                                         const PriorityRelation& pr,
                                         const DynamicBitset& j,
                                         ResourceGovernor& governor) {
  return ExhaustiveCheckImpl(cg, pr, j, governor, /*pareto=*/false);
}

CheckResult ExhaustiveCheckParetoOptimal(const ConflictGraph& cg,
                                         const PriorityRelation& pr,
                                         const DynamicBitset& j,
                                         ResourceGovernor& governor) {
  return ExhaustiveCheckImpl(cg, pr, j, governor, /*pareto=*/true);
}

namespace {

// Keeps the entries of `repairs` that no other entry improves under the
// given semantics.  `repairs` must be improvement-closed: all repairs of
// `facts` (the whole instance, or one block).  The scan charges
// `governor` one checkpoint per pair test (global, Pareto), stopping
// each entry's scan at its first improver, and one per entry for the
// completion check; when the budget fires the returned vector is
// partial and the caller must discard it.
std::vector<DynamicBitset> FilterOptimal(
    const ConflictGraph& cg, const PriorityRelation& pr,
    const std::vector<DynamicBitset>& repairs, RepairSemantics semantics,
    const std::vector<FactId>& facts, ResourceGovernor& governor) {
  std::vector<DynamicBitset> out;
  for (const DynamicBitset& j : repairs) {
    bool optimal = true;
    if (semantics == RepairSemantics::kCompletion) {
      if (!governor.Checkpoint()) {
        return out;
      }
      optimal = CheckCompletionOptimal(cg, pr, j, facts).optimal;
    } else {
      for (const DynamicBitset& other : repairs) {
        if (!governor.Checkpoint()) {
          return out;
        }
        if (semantics == RepairSemantics::kPareto
                ? IsParetoImprovement(cg, pr, j, other)
                : IsGlobalImprovement(cg, pr, j, other)) {
          optimal = false;
          break;
        }
      }
    }
    if (optimal) {
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace

std::vector<DynamicBitset> OptimalRepairsWithin(
    const ConflictGraph& cg, const PriorityRelation& pr,
    const std::vector<FactId>& facts, RepairSemantics semantics,
    ResourceGovernor& governor) {
  std::vector<DynamicBitset> repairs;
  ForEachRepairWithin(cg, facts, governor,
                      [&](const DynamicBitset& repair) {
                        repairs.push_back(repair);
                        return true;
                      });
  if (governor.exhausted()) {
    return {};  // incomplete repair set: filtering it would be unsound
  }
  return FilterOptimal(cg, pr, repairs, semantics, facts, governor);
}

}  // namespace prefrep
