// Copyright (c) prefrep contributors.
// Globally-optimal repair checking over cross-conflict-prioritizing (ccp)
// instances when ∆ is a *primary-key assignment*: every relation's FDs
// are equivalent to a single key constraint (§7.2.1).
//
// By Lemma 7.3, a repair J has a global improvement iff the directed
// bipartite graph G_{J, I\J} has a cycle, where
//
//   * f → g for f ∈ J, g ∈ I \ J that conflict, and
//   * g → f for g ∈ I \ J, f ∈ J with g ≻ f.
//
// Unlike §4.2, the priority may relate facts of different relations, so
// the graph may span relations: the check decomposes per block
// (conflicts/blocks.h), not per relation.

#ifndef PREFREP_REPAIR_CCP_PRIMARY_KEY_H_
#define PREFREP_REPAIR_CCP_PRIMARY_KEY_H_

#include <vector>

#include "graph/digraph.h"
#include "repair/improvement.h"

namespace prefrep {

/// Builds G_{J, I\J} over the facts of `facts` (ascending; node i =
/// facts[i]), keeping only edges between listed facts.  Pass AllFactIds(cg)
/// for the whole instance (node i = fact i; Example 7.2 / Figure 6), or
/// a block's fact_list: no priority edge between facts with conflicts
/// leaves a block (conflicts/blocks.h), and a free fact, always in J,
/// has no out-edge, so the whole graph is the disjoint union of the
/// per-block graphs plus cycle-free free-fact nodes, and cycles can be
/// hunted block by block.
Digraph BuildCcpPrimaryKeyGraph(const ConflictGraph& cg,
                                const PriorityRelation& pr,
                                const DynamicBitset& j,
                                const std::vector<FactId>& facts);

/// Decides whether J is a globally-optimal repair of the ccp-instance
/// (I, ≻) under a primary-key assignment ∆.  Arbitrary J is handled: an
/// inconsistent J is rejected outright; a consistent non-maximal J is
/// rejected with its extension as witness (a superset is a global
/// improvement).  A cycle of G_{J, I\J} is turned into the witness
/// (J \ {f1..fk}) ∪ {g1..gk} of Lemma 7.3.
CheckResult CheckGlobalOptimalCcpPrimaryKey(const ConflictGraph& cg,
                                            const PriorityRelation& pr,
                                            const DynamicBitset& j);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_CCP_PRIMARY_KEY_H_
