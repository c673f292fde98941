// Copyright (c) prefrep contributors.
// Exponential exact baselines.  Globally-optimal repair checking is
// coNP-complete in general (Theorem 3.1's hard side), so the library
// ships an exact checker based on repair enumeration:
//
//   * a consistent subinstance is an independent set of the conflict
//     graph, so repairs are its maximal independent sets, enumerated with
//     Bron–Kerbosch (with pivoting) on the complement graph;
//   * if J has a global improvement, it has one that is a repair (extend
//     any improvement J′ to a maximal J″: J″\J ⊇ J′\J while J\J″ ⊆ J\J′),
//     so scanning repairs is complete — and the same argument holds for
//     Pareto improvements.
//
// These routines validate the polynomial algorithms in the test suite and
// exhibit the exponential blow-up on the hard schemas in the benchmarks.

#ifndef PREFREP_REPAIR_EXHAUSTIVE_H_
#define PREFREP_REPAIR_EXHAUSTIVE_H_

#include <functional>
#include <vector>

#include "base/governor.h"
#include "repair/improvement.h"

namespace prefrep {

/// Enumerates every repair (maximal consistent subinstance) of the
/// instance underlying `cg`, invoking `fn`; stops early when `fn` returns
/// false.  Worst-case exponential output (that is inherent).
void ForEachRepair(const ConflictGraph& cg,
                   const std::function<bool(const DynamicBitset&)>& fn);

/// Budget-governed variant: one `governor.Checkpoint()` per search-tree
/// node.  When the budget runs out the enumeration unwinds immediately
/// (check `governor.exhausted()` afterwards — the enumeration is then
/// incomplete and callers must not treat it as exhaustive).
void ForEachRepair(const ConflictGraph& cg, ResourceGovernor& governor,
                   const std::function<bool(const DynamicBitset&)>& fn);

/// Same, restricted to `facts` (ascending, duplicate-free: a block's
/// fact_list, or any fact subset): enumerates the maximal consistent
/// subsets of `facts`, each handed to `fn` as a whole-instance bitset.
/// The walk reads the list only; it never scans the other fact ids.
void ForEachRepairWithin(const ConflictGraph& cg,
                         const std::vector<FactId>& facts,
                         const std::function<bool(const DynamicBitset&)>& fn);

/// Budget-governed variant of ForEachRepairWithin (see above).
void ForEachRepairWithin(const ConflictGraph& cg,
                         const std::vector<FactId>& facts,
                         ResourceGovernor& governor,
                         const std::function<bool(const DynamicBitset&)>& fn);

/// Ablation variant of ForEachRepair: Bron–Kerbosch *without* pivoting.
/// Exposed for the ablation benchmark that justifies the pivoting
/// choice; results are identical (verified in tests), only slower.
void ForEachRepairNoPivot(
    const ConflictGraph& cg,
    const std::function<bool(const DynamicBitset&)>& fn);

/// Materializes all repairs (use only on small instances).
std::vector<DynamicBitset> AllRepairs(const ConflictGraph& cg);

/// Materializes the maximal consistent subsets of `facts` (full-size
/// bitsets with only listed facts set).  The per-block building brick:
/// the repairs of I are exactly {free facts} ∪ one block-repair per
/// block, so whole-instance work of 2^n factors into Σ 2^{|block|}.
std::vector<DynamicBitset> AllRepairsWithin(const ConflictGraph& cg,
                                            const std::vector<FactId>& facts);

/// Counts the repairs without materializing them.
uint64_t CountRepairs(const ConflictGraph& cg);

/// Exact globally-optimal repair checking by repair enumeration, one
/// `governor.Checkpoint()` per search-tree node.  Correct for every
/// schema and for both priority modes.  A found improvement is definite
/// (kNo) even if the budget later runs out; when the budget fires
/// before the scan certifies optimality the verdict is kUnknown, never
/// a false kYes.
CheckResult ExhaustiveCheckGlobalOptimal(
    const ConflictGraph& cg, const PriorityRelation& pr,
    const DynamicBitset& j,
    ResourceGovernor& governor = ResourceGovernor::Unlimited());

/// Exact Pareto-optimal repair checking by repair enumeration (used to
/// cross-validate the polynomial Pareto check); same contract as the
/// global one.
CheckResult ExhaustiveCheckParetoOptimal(
    const ConflictGraph& cg, const PriorityRelation& pr,
    const DynamicBitset& j,
    ResourceGovernor& governor = ResourceGovernor::Unlimited());

/// The three preferred-repair semantics of [SCM] (§2.4).
enum class RepairSemantics {
  kGlobal,
  kPareto,
  kCompletion,
};

/// The block-repairs of `facts` (one block's fact_list, or
/// AllFactIds(cg) for the whole instance) that are optimal *within the
/// list* under the given semantics, as whole-instance bitsets.  Never
/// empty for a non-empty block (a completion-optimal block-repair
/// always exists).  Optimality within a block equals optimality of the
/// whole repair restricted to the block (docs/algorithms.md, "Why
/// blocks are sound").  The block-repair enumeration checkpoints
/// `governor` once per search-tree node, and the quadratic optimality
/// filter once per pair test (global, Pareto: one repair tested against
/// another, each repair's scan stopping at its first improver) or once
/// per repair (completion), so `max_nodes` bounds the filter too.  When
/// `governor.exhausted()` afterwards the returned vector is partial and
/// MUST be discarded (a subset of the optimal block-repairs is not a
/// usable under-approximation for cross-products).
std::vector<DynamicBitset> OptimalRepairsWithin(
    const ConflictGraph& cg, const PriorityRelation& pr,
    const std::vector<FactId>& facts, RepairSemantics semantics,
    ResourceGovernor& governor = ResourceGovernor::Unlimited());

}  // namespace prefrep

#endif  // PREFREP_REPAIR_EXHAUSTIVE_H_
