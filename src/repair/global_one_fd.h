// Copyright (c) prefrep contributors.
// Globally-optimal repair checking for a single-relation schema whose FD
// set is equivalent to a single FD A → B (§4.1, algorithm GRepCheck1FD of
// Figure 2).
//
// The algorithm tries, for every conflicting pair f ∈ J, g ∈ I \ J, the
// swap J[f↔g] — remove from J the facts agreeing with f on A∪B, add the
// facts of I agreeing with g on A∪B — and accepts J iff no swap is a
// global improvement (Lemma 4.2 shows this is complete).
//
// A swap never leaves f's conflict block: a fact agreeing with f on A∪B
// agrees with g on A and differs from it on B, so it conflicts with g,
// and symmetrically every fact agreeing with g on A∪B conflicts with f.
// The checker therefore ranges over one fact list (a block, or the whole
// relation) and decides each swap on that list alone
// (docs/algorithms.md, §GRepCheck1FD).
//
// Historical note (§4.1): Proposition 10(iii) of [SCM] claimed global and
// completion optimality coincide for a single FD, which would have given
// tractability via completion checking; that proposition is incorrect,
// and this algorithm is the paper's replacement proof of tractability.

#ifndef PREFREP_REPAIR_GLOBAL_ONE_FD_H_
#define PREFREP_REPAIR_GLOBAL_ONE_FD_H_

#include <vector>

#include "repair/improvement.h"

namespace prefrep {

/// The swap J[f↔g] of Example 4.1 over the facts of `facts`: J minus the
/// listed facts agreeing with f on fd.lhs ∪ fd.rhs, plus the listed facts
/// agreeing with g on it.  Requires f ∈ J and f, g a δ-conflict of one
/// relation; `facts` is f's conflict block or the relation's facts_of
/// list (either holds every fact the swap moves).  Exposed for tests
/// (Example 4.1).
DynamicBitset SwapBlocks(const Instance& instance, const FD& fd,
                         const std::vector<FactId>& facts,
                         const DynamicBitset& j, FactId f, FactId g);

/// GRepCheck1FD over the facts of `facts`: decides whether J ∩ facts is a
/// globally-optimal repair of `facts`, where `facts` lists, in ascending
/// id order, a set of facts of one relation closed under conflicts — a
/// conflict block (BlockSolver::CheckBlock) or facts_of(rel) — and ∆
/// restricted to that relation is equivalent to the single FD `fd`
/// (the caller obtains `fd` from the dichotomy classifier).
///
/// Handles arbitrary J: a J inconsistent on the list is rejected without
/// a witness, a non-maximal one with the addable fact as witness.  Each
/// swap is then decided by Definition 2.4 on the list — the swapped
/// candidate differs from J there, is consistent there, and every fact
/// it removes has a dominator among the facts it adds — which equals
/// IsGlobalImprovement on the whole instance whenever J is consistent,
/// because the swap changes nothing outside the list.  Cost
/// O(|facts| · swaps), swaps ≤ |J ∩ facts| · deg.
CheckResult CheckGlobalOptimalOneFd(const ConflictGraph& cg,
                                    const PriorityRelation& pr, const FD& fd,
                                    const std::vector<FactId>& facts,
                                    const DynamicBitset& j);

/// GRepCheck1FD over the whole relation `rel`: the check above on
/// facts_of(rel), deciding whether J ∩ rel is a globally-optimal repair
/// of I ∩ rel.  A resident session's facts_of(rel) still lists deleted
/// facts, so sessions check per block (OneFdBlockSolver), whose lists
/// never hold them.
CheckResult CheckGlobalOptimalOneFd(const ConflictGraph& cg,
                                    const PriorityRelation& pr, RelId rel,
                                    const FD& fd, const DynamicBitset& j);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_GLOBAL_ONE_FD_H_
