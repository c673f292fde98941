#include "classify/categoricity.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "io/text_format.h"
#include "repair/audit.h"
#include "repair/block_solver.h"
#include "repair/construct.h"

namespace prefrep {

const char* CategoricityName(Categoricity value) {
  switch (value) {
    case Categoricity::kCategorical:
      return "categorical";
    case Categoricity::kAmbiguous:
      return "ambiguous";
    case Categoricity::kUnknown:
      return "unknown";
  }
  return "?";
}

namespace {

// Whether the priority totally orders every conflicting pair of `b`.
// Conflict neighbors of a block fact are block facts by definition of
// connected components, so scanning adjacency lists covers exactly the
// block's conflict pairs.
bool BlockPriorityTotalOnConflicts(const ConflictGraph& cg,
                                   const PriorityRelation& pr,
                                   const Block& b) {
  for (FactId f : b.fact_list) {
    for (FactId g : cg.neighbors(f)) {
      if (g <= f) {
        continue;  // each conflict pair once
      }
      if (!pr.Prefers(f, g) && !pr.Prefers(g, f)) {
        return false;
      }
    }
  }
  return true;
}

// Whether no priority edge touches any fact of `b` (in either
// orientation, including edges leaving the block).  Such a block's
// improvement relation is empty under every semantics — nothing is
// preferred to anything — so EVERY block-repair is optimal, and a block
// with a conflict pair has at least two maximal independent sets:
// ambiguous outright, in time linear in the block.
bool BlockPriorityEmpty(const PriorityRelation& pr, const Block& b) {
  for (FactId f : b.fact_list) {
    if (!pr.Dominates(f).empty() || !pr.DominatedBy(f).empty()) {
      return false;
    }
  }
  return true;
}

// Test-only fault injection, same contract as AuditedCheckBlock:
// corrupt the verdict *before* it is audited so the death test can
// prove the categoricity audit actually fires.  A flipped kFalse gets
// no repair, which the audit also rejects.
void MaybeCorruptForTesting(BlockCategoricity* result) {
  if (audit::Enabled() && audit::internal::ForcingWrongVerdict() &&
      result->unique != Trilean::kUnknown) {
    result->unique = result->unique == Trilean::kTrue ? Trilean::kFalse
                                                      : Trilean::kTrue;
  }
}

}  // namespace

BlockCategoricity DecideBlockCategoricity(const ProblemContext& ctx,
                                          const Block& b,
                                          RepairSemantics semantics) {
  BlockCategoricity out;
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  // The greedy block construction relies on completion semantics, which
  // require a conflict-bounded priority.
  if (pr.IsConflictBounded() && BlockPriorityTotalOnConflicts(cg, pr, b)) {
    // Fast tier: a total priority admits exactly one optimal
    // block-repair, identical under all three semantics ([SCM]), and
    // the greedy block construction produces it in polynomial time.
    out.unique = Trilean::kTrue;
    out.repair = *GreedyWithin(cg, pr, b.fact_list, ConstructOptions{},
                               ResourceGovernor::Unlimited());
    audit::CheckConstructedBlockRepair(cg, pr, b.fact_list, out.repair,
                                       "categoricity fast tier");
    MaybeCorruptForTesting(&out);
    return out;
  }
  if (b.fact_list.size() >= 2 && BlockPriorityEmpty(pr, b)) {
    // Ambiguity tier: conflicts with no preferences means every
    // block-repair is optimal, and there are at least two.  Keeps the
    // pre-pass polynomial on near-miss instances, where the broken
    // block is exactly this shape.
    out.unique = Trilean::kFalse;
    MaybeCorruptForTesting(&out);
    return out;
  }
  // Exact tier: materialize the optimal block-repairs and test
  // uniqueness.  Empty unambiguously means abandoned (every block has
  // at least one optimal block-repair).
  out.exponential = true;
  const std::vector<uint64_t> optimal = CachedOptimalBlockRepairs(
      SolverForSemantics(ctx, b, semantics), ctx, b);
  if (optimal.empty()) {
    ResourceGovernor& governor = ctx.governor();
    out.unique = Trilean::kUnknown;
    out.unknown_reason = governor.exhausted()
                             ? governor.CauseString()
                             : "block " + std::to_string(b.id) +
                                   " refused by the block-admission budget";
  } else if (optimal.size() == 1) {
    out.unique = Trilean::kTrue;
    out.repair = DynamicBitset(b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      out.repair.set(i, ((optimal.front() >> i) & 1) != 0);
    }
  } else {
    out.unique = Trilean::kFalse;
  }
  MaybeCorruptForTesting(&out);
  return out;
}

CategoricityResult DecideCategoricity(const ProblemContext& ctx,
                                      RepairSemantics semantics) {
  CategoricityResult result;
  if (!ctx.priority_block_local()) {
    // Per-block composition is unsound for cross-block priorities, and
    // a whole-instance uniqueness test costs exactly the enumeration
    // the fast path exists to avoid — report "undecided" for free.
    result.unknown_reason =
        "priority relates facts across blocks; per-block categoricity "
        "does not apply";
    return result;
  }
  DynamicBitset repair = ctx.blocks().free_facts();
  // Each block checkpoints once, then its tiers decide it; the
  // exponential tier reads the block-solve cache.
  FoldOutcome outcome = FoldBlocks(
      ctx, nullptr,
      [semantics](const ProblemContext& cx, const Block& b) {
        ResourceGovernor& governor = cx.governor();
        if (!governor.Checkpoint()) {
          BlockCategoricity out;
          out.unknown_reason = governor.CauseString();
          return out;
        }
        return DecideBlockCategoricity(cx, b, semantics);
      },
      [](const BlockCategoricity& c) { return c.unique != Trilean::kUnknown; },
      [](const BlockCategoricity& c) { return c.unique == Trilean::kFalse; },
      [&](const Block& b, BlockCategoricity& c, bool /*budget_fired*/) {
        audit::CheckBlockCategoricity(ctx, b, semantics, c);
        switch (c.unique) {
          case Trilean::kFalse:
            result.verdict = Categoricity::kAmbiguous;
            result.ambiguous_block = b.id;
            return FoldStep::Stop();
          case Trilean::kUnknown:
            result.unknown_reason = std::move(c.unknown_reason);
            return FoldStep::Stop();
          case Trilean::kTrue:
            break;
        }
        OrBlockMask(b, c.repair, &repair);
        return FoldStep::Exact();
      });
  if (!outcome.stopped()) {
    result.verdict = Categoricity::kCategorical;
    result.repair = std::move(repair);
  }
  audit::CheckCategoricityVerdict(ctx, semantics, result);
  return result;
}

namespace audit {
namespace internal {

#if PREFREP_AUDIT_ENABLED

namespace {

// Same contract as the repair-audit Fail: print the offending instance
// in the io/text_format grammar for replay, then abort.
[[noreturn]] void FailCategoricity(const Instance& instance,
                                   const PriorityRelation& pr,
                                   const std::string& what) {
  std::string dump = ProblemToText(instance, &pr, nullptr);
  std::fprintf(stderr,
               "[prefrep audit] %s\n"
               "[prefrep audit] replay input (io/text_format):\n%s",
               what.c_str(), dump.c_str());
  PREFREP_FATAL("categoricity audit failed — replay dump above");
}

// The definitional optimal-repair set of one block: enumerate its
// block-repairs and keep the ones nothing improves (repair/exhaustive.h
// — the same baseline layer every repair audit uses).
std::vector<DynamicBitset> DefinitionalBlockOptimal(
    const ProblemContext& ctx, const Block& b, RepairSemantics semantics) {
  return OptimalRepairsWithin(ctx.conflict_graph(), ctx.priority(),
                              b.fact_list, semantics);
}

}  // namespace

void BlockCategoricityImpl(const ProblemContext& ctx, const Block& b,
                           RepairSemantics semantics,
                           const BlockCategoricity& result) {
  if (result.unique == Trilean::kUnknown || b.size() > kMaxVerdictBlock) {
    return;  // an undecided verdict asserts nothing
  }
  std::vector<DynamicBitset> optimal =
      DefinitionalBlockOptimal(ctx, b, semantics);
  const bool unique = optimal.size() == 1;
  const std::string tag =
      "categoricity of block " + std::to_string(b.id) + " (" +
      std::to_string(b.size()) + " facts)";
  if (unique != (result.unique == Trilean::kTrue)) {
    FailCategoricity(ctx.instance(), ctx.priority(),
                     tag + ": verdict " + TrileanName(result.unique) +
                         " but the block has " +
                         std::to_string(optimal.size()) +
                         " optimal block-repair(s)");
  }
  if (result.unique == Trilean::kTrue) {
    DynamicBitset reported(ctx.instance().num_facts());
    OrBlockMask(b, result.repair, &reported);
    if (reported != optimal.front()) {
      FailCategoricity(ctx.instance(), ctx.priority(),
                       tag + ": reported unique block-repair is not the "
                             "definitional one");
    }
  }
}

void CategoricityVerdictImpl(const ProblemContext& ctx,
                             RepairSemantics semantics,
                             const CategoricityResult& result) {
  if (result.verdict == Categoricity::kUnknown ||
      !ctx.priority_block_local()) {
    return;
  }
  const BlockDecomposition& blocks = ctx.blocks();
  if (blocks.CoveredFacts().count() > kMaxWholeInstance) {
    return;
  }
  // Definitional optimal-repair set over the context's own universe
  // ({free facts} × ∏ per-block optimal block-repairs — the resident
  // decomposition may carry tombstoned ids a from-graph rebuild would
  // misread as free facts).  Ungoverned on purpose, like every audit
  // baseline: the kMaxWholeInstance gate above bounds the product.
  std::vector<DynamicBitset> all{blocks.free_facts()};
  for (const Block& b : blocks.blocks()) {
    std::vector<DynamicBitset> per_block =
        DefinitionalBlockOptimal(ctx, b, semantics);
    std::vector<DynamicBitset> next;
    next.reserve(all.size() * per_block.size());
    for (const DynamicBitset& prefix : all) {
      for (const DynamicBitset& choice : per_block) {
        next.push_back(prefix | choice);
      }
    }
    all = std::move(next);
  }
  const bool unique = all.size() == 1;
  if (unique != (result.verdict == Categoricity::kCategorical)) {
    FailCategoricity(ctx.instance(), ctx.priority(),
                     std::string("whole-instance categoricity: verdict ") +
                         CategoricityName(result.verdict) + " but " +
                         std::to_string(all.size()) +
                         " optimal repair(s) exist");
  }
  if (result.verdict == Categoricity::kCategorical &&
      !(result.repair == all.front())) {
    FailCategoricity(ctx.instance(), ctx.priority(),
                     "whole-instance categoricity: reported unique repair "
                     "is not the definitional one");
  }
}

#endif  // PREFREP_AUDIT_ENABLED

}  // namespace internal
}  // namespace audit
}  // namespace prefrep
