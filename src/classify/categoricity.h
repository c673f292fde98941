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
//   * a block whose conflict pairs are totally ordered by a
//     conflict-bounded priority is categorical outright, and its unique
//     optimal block-repair is the greedy construction ([SCM]: under a
//     total priority the globally-, Pareto- and completion-optimal
//     repairs coincide and are unique) — polynomial, the fast tier;
//   * a block with conflicts but no priority edge touching any of its
//     facts is ambiguous outright: the improvement relation is empty,
//     so every block-repair is optimal and a conflict pair guarantees
//     at least two — also polynomial;
//   * any other block falls back to materializing its optimal
//     block-repair set (repair/block_solver.h) and testing |set| == 1 —
//     exponential, budget-governed, abandoned as kUnknown;
//   * the instance is categorical iff every block is (block
//     independence: optimal repairs factor as {free facts} × ∏ per-block
//     optimal block-repairs), ambiguous as soon as one block has two
//     optimal block-repairs, and unknown if a block stayed undecided
//     before any block refuted.
//
// Cross-block (non-block-local) priorities are reported kUnknown
// without work: per-block reasoning is unsound there, and deciding
// categoricity whole-instance costs as much as the enumeration the fast
// path exists to avoid.
//
// The query layer (query/consistent_answers.h) runs this as a pre-pass
// under a *private* governor derived from the caller's budget, so a
// non-categorical or unknown verdict falls back to the enumeration path
// with the caller's governor untouched — byte-identical to never having
// asked.  The serving layer (serve/session.h) memoizes per-block
// verdicts in a CategoricityMemo and invalidates them under
// insert/delete/prefer alongside its fingerprint invalidation; the memo
// follows the block-solve cache's serve discipline (docs/caching.md),
// so memoization changes cost, never outcome.

#ifndef PREFREP_CLASSIFY_CATEGORICITY_H_
#define PREFREP_CLASSIFY_CATEGORICITY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/context.h"
#include "repair/exhaustive.h"

namespace prefrep {

/// Whole-instance categoricity verdict.
enum class Categoricity {
  kCategorical,  ///< exactly one optimal repair exists
  kAmbiguous,    ///< at least two optimal repairs exist
  kUnknown,      ///< undecided: budget fired, oversized block, or
                 ///< cross-block priority
};

/// Short human-readable name ("categorical" / "ambiguous" / "unknown").
const char* CategoricityName(Categoricity value);

/// One block's categoricity answer.
struct BlockCategoricity {
  /// kTrue: the block has exactly one optimal block-repair (in
  /// `repair`); kFalse: at least two; kUnknown: abandoned by the budget
  /// or refused admission.
  Trilean unique = Trilean::kUnknown;
  /// The unique optimal block-repair as a block mask of b.size() bits
  /// (bit i = b.fact_list[i], conflicts/blocks.h); meaningful iff
  /// unique == Trilean::kTrue.
  DynamicBitset repair;
  /// True when the exponential tier (optimal block-repair enumeration)
  /// decided the block; false for the polynomial total-priority tier.
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

/// Session-resident memo of per-block categoricity verdicts, keyed by
/// (block key, semantics) where the block key is the block's smallest
/// fact id — the same key the serve layer files block state under, so
/// its insert/delete/prefer invalidation can retire memo entries
/// alongside fingerprints.  Not locked: the workers of
/// DecideCategoricity's fold only Lookup, and every write happens on
/// the calling thread — the hit/miss counters, which no worker reads,
/// during the fold, and Store once the fold has joined its workers.
///
/// Serving follows the block-solve cache's discipline so the memo can
/// only change cost, never outcome: only complete (known) verdicts are
/// stored, and an entry is served only when a fresh solve under the
/// requesting governor would have completed identically — the
/// governor's replay rule (ResourceGovernor::TryReplay), after block
/// admission for exhaustive-tier entries.
class CategoricityMemo {
 public:
  struct Entry {
    Trilean unique = Trilean::kUnknown;
    /// BlockCategoricity::repair as decided: the unique optimal
    /// block-repair as a block mask.  An entry is retired whenever its
    /// block's membership changes, so its bit positions stay as stable
    /// as fact ids.  Empty unless unique == Trilean::kTrue.
    DynamicBitset repair_local;
    /// Serial node cost of the decision, valid only when `nodes_valid`
    /// (measured under an armed governor).
    uint64_t nodes = 0;
    bool nodes_valid = false;
    /// Whether the exponential tier produced the verdict (such entries
    /// must re-pass block admission before being served).
    bool exponential = false;
  };

  /// The memoized verdict for (key, semantics), if any.
  const Entry* Lookup(FactId key, RepairSemantics semantics) const;

  /// Records a complete verdict (CHECK: unique != kUnknown).
  void Store(FactId key, RepairSemantics semantics, Entry entry);

  /// Retires every semantics' entry for the block keyed by `key` (the
  /// block's smallest fact id).  Call whenever the block's membership
  /// or internal priority edges change.
  void Invalidate(FactId key);

  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }

  /// Snapshot of the resident (block key, semantics) key set, so tests
  /// can cross-check every cached verdict against a from-scratch
  /// recomputation and prove no entry outlives its block.
  std::vector<std::pair<FactId, int>> keys() const {
    std::vector<std::pair<FactId, int>> out;
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      out.push_back(key);
    }
    return out;
  }

  /// Traffic of DecideCategoricity: a hit is a block it served from
  /// the memo, a miss a block it reached and did not serve.
  void NoteHit() { ++hits_; }
  void NoteMiss() { ++misses_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::map<std::pair<FactId, int>, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Decides whether block `b` has a unique optimal block-repair under
/// `semantics`.  Polls ctx.governor(); kUnknown when the budget fires
/// or the block is refused admission.
BlockCategoricity DecideBlockCategoricity(const ProblemContext& ctx,
                                          const Block& b,
                                          RepairSemantics semantics);

/// Decides whether (I, ≻) has a unique `semantics`-optimal repair.
/// Requires nothing of the priority: cross-block priorities yield
/// kUnknown outright.  Blocks are decided on FoldBlocks (byte-identical
/// to the serial pass at any thread count): each block checkpoints
/// ctx.governor() once, and the fold stops at the first ambiguous or
/// undecided block.  With a `memo`, a block whose stored verdict may be
/// served under the current governor (admission re-checked for
/// exhaustive-tier entries, then the governor's replay rule) skips
/// recomputation; every other block reached is decided fresh and, if
/// complete, stored back after the fold.
CategoricityResult DecideCategoricity(const ProblemContext& ctx,
                                      RepairSemantics semantics,
                                      CategoricityMemo* memo = nullptr);

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
