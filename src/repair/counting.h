// Copyright (c) prefrep contributors.
// Counting and uniqueness of preferred repairs — the second direction
// named by the paper's concluding remarks (§8): "to determine the
// number of globally-optimal repairs, and in particular, to
// characterize when precisely one such repair exists", the interesting
// case because a unique repair means the constraints and priorities
// define an unambiguous cleaning.
//
// Counting multiplies the sizes of the blocks' optimal sets
// (OptimalSetOf, repair/block_solver.h): polynomial for a block whose
// priority orders every conflicting pair, by enumeration (exact,
// exponential in general) otherwise.  Whether exactly one exists is
// categoricity (classify/categoricity.h), which reads the same sets.

#ifndef PREFREP_REPAIR_COUNTING_H_
#define PREFREP_REPAIR_COUNTING_H_

#include "model/context.h"
#include "repair/block_solver.h"
#include "repair/exhaustive.h"

namespace prefrep {

/// A repair count that knows whether it is exact.  When a budget fires
/// the per-block product keeps a *verified lower bound*: every block —
/// counted or abandoned — has at least one optimal block-repair, so an
/// abandoned block contributes the members of its optimal set verified
/// before abandonment, floored at one.
struct BoundedCount {
  uint64_t lower_bound = 1;
  /// True iff `lower_bound` is the exact count.
  bool exact = true;
  /// Blocks whose count was cut short by the budget.
  size_t unknown_blocks = 0;
  /// True when the product overflowed uint64 (lower_bound is then
  /// UINT64_MAX, still a valid lower bound).
  bool saturated = false;
};

/// Number of σ-optimal repairs: the saturating product of the sizes of
/// the blocks' optimal sets (OptimalSetOf) through FoldBlocks
/// (conflict-free facts contribute a factor of one), so k independent
/// blocks cost Σ 2^{|block|} instead of ∏.  Reports
/// whether the count is exact, how many blocks the budget cut short
/// (each still contributes its verified members, floored at one —
/// every block has an optimal block-repair), and whether the product
/// saturated uint64.
BoundedCount CountOptimalRepairsBounded(const ProblemContext& ctx,
                                        RepairSemantics semantics);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_COUNTING_H_
