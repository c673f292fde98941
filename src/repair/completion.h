// Copyright (c) prefrep contributors.
// Completion-optimal repair checking.  [SCM] define J to be a
// completion-optimal repair of (I, ≻) if J is the (unique) globally-
// optimal repair under some *completion* of ≻ — an acyclic extension that
// is total on every conflicting pair.  Completion-optimal repairs are
// exactly the possible outputs of the nondeterministic greedy procedure
//
//   while facts remain: pick any remaining fact f with no remaining g ≻ f,
//   add f to the output, delete f's conflicting facts;
//
// and [SCM, Cor. 4] show checking is polynomial.  Our checker runs the
// greedy restricted to J-facts to a fixpoint; confluence (removals never
// block a pickable fact, and priorities never hold between the mutually
// consistent facts of J) makes the fixpoint canonical:
//
//   J is completion-optimal  ⟺  the fixpoint picks all of J and the
//   conflict deletions eliminate all of I \ J.
//
// The equivalence with the enumerate-all-completions definition is
// verified by brute force in completion_test.cc.
//
// NOTE (§4.1): [SCM, Prop. 10(iii)] claimed completion and global
// optimality coincide for single-FD schemas; the paper reports this is
// incorrect.  See completion_test.cc for a concrete single-FD instance
// with a globally-optimal repair that is not completion-optimal.

#ifndef PREFREP_REPAIR_COMPLETION_H_
#define PREFREP_REPAIR_COMPLETION_H_

#include <vector>

#include "repair/improvement.h"

namespace prefrep {

/// Decides whether J is a completion-optimal repair of (I, ≻).
/// Requires a conflict-bounded priority (§2.3); completion semantics for
/// cross-conflict priorities are not defined by [SCM] and are rejected
/// with a PREFREP_CHECK.
///
/// The check runs on `facts`, scanned in list order: it decides whether
/// J ∩ facts is a completion-optimal repair of the listed facts.  Pass a
/// block's fact_list for one block, AllFactIds(cg) for the whole
/// instance.  Per block is sound because the greedy procedure's picks
/// and deletions never leave a block (conflicts and conflict-bounded
/// priorities are intra-block), so its possible outputs factor across
/// blocks.  The fixpoint runs on masks over `facts` and never scans the
/// other fact ids.
CheckResult CheckCompletionOptimal(const ConflictGraph& cg,
                                   const PriorityRelation& pr,
                                   const DynamicBitset& j,
                                   const std::vector<FactId>& facts);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_COMPLETION_H_
