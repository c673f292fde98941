// Copyright (c) prefrep contributors.
// Globally-optimal repair checking over ccp-instances when ∆ is a
// *constant-attribute assignment*: every relation's FDs are equivalent to
// a single FD ∅ → B (§7.2.2).
//
// For such schemas every repair consists of one "consistent partition"
// per relation — a maximal set of facts of R agreeing on ⟦R.∅⟧ — so the
// repairs can be enumerated outright: their number is ∏_R (#partitions
// of R), polynomial for a fixed schema.  J is globally-optimal iff it is
// a repair and no enumerated repair is a global improvement of it (an
// argument in the module shows improvements may be assumed maximal).

#ifndef PREFREP_REPAIR_CCP_CONSTANT_ATTR_H_
#define PREFREP_REPAIR_CCP_CONSTANT_ATTR_H_

#include <functional>
#include <vector>

#include "repair/improvement.h"

namespace prefrep {

/// The consistent partitions of `facts` (facts of relation `rel`): the
/// facts grouped by their projection onto ⟦R.∅⟧ (the closure of ∅ under
/// ∆|rel), each group in list order.  If ∆|rel is trivial the single
/// group is all of `facts`.  Pass facts_of(rel) for the whole relation,
/// or a block's fact_list: only the list is read, so a resident
/// session's tombstoned facts never enter a partition.
std::vector<std::vector<FactId>> ConsistentPartitions(
    const Instance& instance, RelId rel, const std::vector<FactId>& facts);

/// Enumerates the repairs of `facts` (ascending, duplicate-free: a
/// block's fact_list, or AllFactIds(cg) for the whole instance) — one
/// consistent partition per relation with a listed fact — invoking
/// `fn(repair)` with a whole-instance bitset holding the chosen
/// partitions; stops early if `fn` returns false.  The partitions are
/// ConsistentPartitions of each relation's listed facts, relations in
/// id order, the first varying fastest.  Only valid under a
/// constant-attribute assignment.
void ForEachConstantAttrRepair(
    const Instance& instance, const std::vector<FactId>& facts,
    const std::function<bool(const DynamicBitset&)>& fn);

/// Decides whether J is a globally-optimal repair of the ccp-instance
/// (I, ≻) under a constant-attribute assignment ∆.
CheckResult CheckGlobalOptimalCcpConstantAttr(const ConflictGraph& cg,
                                              const PriorityRelation& pr,
                                              const DynamicBitset& j);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_CCP_CONSTANT_ATTR_H_
