// Copyright (c) prefrep contributors.
// Pareto-optimal repair checking (§2.4, §3).  For every schema this is
// solvable in polynomial time [Staworko–Chomicki–Marcinkowski]:
//
//   J has a Pareto improvement  ⟺  some fact g ∈ I \ J is preferred over
//   every fact of J it conflicts with (including the vacuous case of a
//   fact with no conflicts in J, which witnesses non-maximality).
//
// This characterization (proved in the module test) also works for
// cross-conflict priorities, so the same routine serves §7.

#ifndef PREFREP_REPAIR_PARETO_H_
#define PREFREP_REPAIR_PARETO_H_

#include <vector>

#include "repair/improvement.h"

namespace prefrep {

/// Finds a Pareto improvement of the consistent subinstance `j`, if one
/// exists.  Requires `j` consistent (checked).
///
/// The witness returned is (J \ C(g)) ∪ {g}, where g is the improving
/// fact and C(g) the facts of J conflicting with g.
///
/// The candidate improving facts g are those of `facts`, scanned in
/// list order: a block's fact_list, or AllFactIds(cg) for the whole
/// instance.  A Pareto improvement through g only removes facts
/// conflicting with g, so the whole-instance verdict is the conjunction
/// of the per-block verdicts (plus presence of all conflict-free facts).
CheckResult FindParetoImprovement(const ConflictGraph& cg,
                                  const PriorityRelation& pr,
                                  const DynamicBitset& j,
                                  const std::vector<FactId>& facts);

/// Pareto-optimal repair checking: true iff `j` is a Pareto-optimal
/// repair of I, i.e. `j` is consistent and admits no Pareto improvement.
/// (A consistent non-maximal `j` always admits one, so maximality need
/// not be tested separately.)  Returns a witness when not optimal.
CheckResult CheckParetoOptimal(const ConflictGraph& cg,
                               const PriorityRelation& pr,
                               const DynamicBitset& j);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_PARETO_H_
