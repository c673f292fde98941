// Copyright (c) prefrep contributors.
// Categoricity — does the priority determine a *unique* optimal repair?
//
// Kimelfeld–Livshits–Peterfreund ("Unambiguous Prioritized Repairing of
// Databases") call a prioritizing instance *categorical* when exactly
// one repair is optimal; consistent query answering then collapses to
// evaluating the query on that single repair, because an intersection
// (or union) over a one-element repair set is the set itself.  This
// module decides categoricity per conflict block and composes the
// whole-instance verdict, three-valued under a resource budget:
//
//   * a block with conflicts but no priority edge touching any of its
//     facts is ambiguous outright: the improvement relation is empty,
//     so every block-repair is optimal and a conflict pair guarantees
//     at least two — polynomial;
//   * any other block is decided by its optimal set
//     (repair/block_solver.h, OptimalSetOf) — the answer counting,
//     enumeration and CQA fold too — and |set| == 1.  A block whose
//     conflict pairs a conflict-bounded priority totally orders gets
//     the greedy block-repair as its one member ([SCM]: under a total
//     priority the globally-, Pareto- and completion-optimal repairs
//     coincide and are unique), in polynomial time; any other block
//     materializes its set, exponential in general, budget-governed;
//     a set with two members is ambiguous even when the budget cut it
//     short, and any other incomplete set leaves the block kUnknown;
//   * the instance is categorical iff every block is (block
//     independence: optimal repairs factor as {free facts} × ∏ per-block
//     optimal block-repairs), ambiguous as soon as one block has two
//     optimal block-repairs, and unknown if a block stayed undecided
//     before any block refuted.
//
// Every priority decomposes this way: a cross-conflict priority edge
// between two facts with conflicts puts them in one block, and an edge
// touching a free fact changes no repair's optimality
// (conflicts/blocks.h).
//
// Consistent query answering (query/consistent_answers.h) does not go
// through this module: it folds the same per-block sets into the
// optimal-repair product, and a one-member product is the categorical
// case.  Nothing stores a verdict: a block is decided on every call.
// The polynomial tiers are linear in the block, and an exponential set
// is read through the block-solve cache (CachedOptimalBlockRepairs),
// keyed by canonical fingerprint, which changes cost, never outcome
// (docs/caching.md).

#ifndef PREFREP_CLASSIFY_CATEGORICITY_H_
#define PREFREP_CLASSIFY_CATEGORICITY_H_

#include <cstdint>
#include <string>

#include "model/context.h"
#include "repair/exhaustive.h"

namespace prefrep {

/// Whole-instance categoricity verdict.
enum class Categoricity {
  kCategorical,  ///< exactly one optimal repair exists
  kAmbiguous,    ///< at least two optimal repairs exist
  kUnknown,      ///< undecided: budget fired or oversized block
};

/// Short human-readable name ("categorical" / "ambiguous" / "unknown").
const char* CategoricityName(Categoricity value);

/// One block's categoricity answer.
struct BlockCategoricity {
  /// kTrue: the block has exactly one optimal block-repair (in
  /// `repair`); kFalse: at least two (verified, possibly before the
  /// budget fired); kUnknown: refused admission, or abandoned by the
  /// budget before two members were verified.
  Trilean unique = Trilean::kUnknown;
  /// The unique optimal block-repair as a block mask of b.size() bits
  /// (bit i = b.fact_list[i], conflicts/blocks.h); meaningful iff
  /// unique == Trilean::kTrue.
  DynamicBitset repair;
  /// True when a solver's optimal set decided the block; false for the
  /// polynomial tiers (no priority edge, or the total-priority rule).
  bool exponential = false;
  /// Governor cause when unique == Trilean::kUnknown.
  std::string unknown_reason;
};

/// Whole-instance categoricity result.
struct CategoricityResult {
  Categoricity verdict = Categoricity::kUnknown;
  /// The unique optimal repair; meaningful iff verdict == kCategorical.
  DynamicBitset repair;
  /// Id of the first block with two optimal block-repairs (merge
  /// order); meaningful iff verdict == kAmbiguous.
  size_t ambiguous_block = SIZE_MAX;
  /// Why the verdict stayed open; meaningful iff verdict == kUnknown.
  std::string unknown_reason;
};

/// Decides whether block `b` has a unique optimal block-repair under
/// `semantics`.  Polls ctx.governor(); kUnknown when the block is
/// refused admission or the budget fires before the block's optimal set
/// is complete or holds two members.
BlockCategoricity DecideBlockCategoricity(const ProblemContext& ctx,
                                          const Block& b,
                                          RepairSemantics semantics);

/// Decides whether (I, ≻) has a unique `semantics`-optimal repair.
/// Blocks are decided on FoldBlocks (byte-identical
/// to the serial pass at any thread count): each block checkpoints
/// ctx.governor() once, then DecideBlockCategoricity decides it, and the
/// fold stops at the first ambiguous or undecided block.
CategoricityResult DecideCategoricity(const ProblemContext& ctx,
                                      RepairSemantics semantics);

namespace audit {
namespace internal {

// Out-of-line audit bodies; defined (non-trivially) only in audit
// builds.  Call the inline wrappers below instead.
void BlockCategoricityImpl(const ProblemContext& ctx, const Block& b,
                           RepairSemantics semantics,
                           const BlockCategoricity& result);
void CategoricityVerdictImpl(const ProblemContext& ctx,
                             RepairSemantics semantics,
                             const CategoricityResult& result);

}  // namespace internal

/// Cross-validates a per-block categoricity verdict against the
/// definitional check (materialize the block's optimal block-repairs,
/// test |set| == 1) on blocks of at most repair-audit kMaxVerdictBlock
/// facts.  Unknown verdicts are exempt (they assert nothing).
inline void CheckBlockCategoricity(const ProblemContext& ctx, const Block& b,
                                   RepairSemantics semantics,
                                   const BlockCategoricity& result) {
#if PREFREP_AUDIT_ENABLED
  internal::BlockCategoricityImpl(ctx, b, semantics, result);
#else
  (void)ctx;
  (void)b;
  (void)semantics;
  (void)result;
#endif
}

/// Cross-validates a whole-instance categoricity verdict against full
/// optimal-repair enumeration on instances of at most kMaxWholeInstance
/// facts.
inline void CheckCategoricityVerdict(const ProblemContext& ctx,
                                     RepairSemantics semantics,
                                     const CategoricityResult& result) {
#if PREFREP_AUDIT_ENABLED
  internal::CategoricityVerdictImpl(ctx, semantics, result);
#else
  (void)ctx;
  (void)semantics;
  (void)result;
#endif
}

}  // namespace audit
}  // namespace prefrep

#endif  // PREFREP_CLASSIFY_CATEGORICITY_H_
