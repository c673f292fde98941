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

// ---- CategoricityMemo ------------------------------------------------

const CategoricityMemo::Entry* CategoricityMemo::Lookup(
    FactId key, RepairSemantics semantics) const {
  auto it = entries_.find({key, static_cast<int>(semantics)});
  return it == entries_.end() ? nullptr : &it->second;
}

void CategoricityMemo::Store(FactId key, RepairSemantics semantics,
                             Entry entry) {
  PREFREP_CHECK_MSG(entry.unique != Trilean::kUnknown,
                    "only complete categoricity verdicts may be memoized");
  entries_[{key, static_cast<int>(semantics)}] = std::move(entry);
}

void CategoricityMemo::Invalidate(FactId key) {
  auto it = entries_.lower_bound({key, 0});
  while (it != entries_.end() && it->first.first == key) {
    it = entries_.erase(it);
  }
}

namespace {

// A block's memo key: its smallest fact id — the same key the serve
// layer files block state (and fingerprint invalidation) under.
FactId BlockKey(const Block& b) { return b.fact_list.front(); }

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

// The per-block decision with the conflict-boundedness of the whole
// priority precomputed (it is O(priority edges) to test, so
// DecideCategoricity pays for it once, not per block).
BlockCategoricity DecideBlockImpl(const ProblemContext& ctx, const Block& b,
                                  RepairSemantics semantics,
                                  bool conflict_bounded) {
  BlockCategoricity out;
  if (conflict_bounded &&
      BlockPriorityTotalOnConflicts(ctx.conflict_graph(), ctx.priority(), b)) {
    // Fast tier: a total priority admits exactly one optimal
    // block-repair, identical under all three semantics ([SCM]), and
    // the greedy block construction produces it in polynomial time.
    const ConflictGraph& cg = ctx.conflict_graph();
    const PriorityRelation& pr = ctx.priority();
    PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                      "greedy block construction relies on completion "
                      "semantics, which require conflict-bounded priorities");
    out.unique = Trilean::kTrue;
    out.repair = *GreedyWithin(cg, pr, b.fact_list, ConstructOptions{},
                               ResourceGovernor::Unlimited());
    audit::CheckConstructedBlockRepair(cg, pr, b.fact_list, out.repair,
                                       "categoricity fast tier");
    MaybeCorruptForTesting(&out);
    return out;
  }
  if (b.fact_list.size() >= 2 && BlockPriorityEmpty(ctx.priority(), b)) {
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

// One block's payload on the fold: its decision, whether the memo
// served it, and the checkpoints it spent after the block's head
// checkpoint.
struct FoldedBlock {
  BlockCategoricity result;
  bool served = false;
  uint64_t nodes = 0;
};

// Checkpoints once for the block, then serves its memo entry when the
// entry may stand in for a fresh decision under ctx.governor() —
// exhaustive-tier entries must also pass admission, so that a refusal a
// fresh decision would record is recorded by one — or decides it fresh.
// Workers run this too; they only read the memo.
FoldedBlock SolveBlock(const ProblemContext& ctx, const Block& b,
                       RepairSemantics semantics, bool conflict_bounded,
                       const CategoricityMemo* memo) {
  FoldedBlock out;
  ResourceGovernor& governor = ctx.governor();
  if (!governor.Checkpoint()) {
    out.result.unknown_reason = governor.CauseString();
    return out;
  }
  const uint64_t before = governor.nodes_spent();
  const CategoricityMemo::Entry* entry =
      memo != nullptr ? memo->Lookup(BlockKey(b), semantics) : nullptr;
  if (entry != nullptr &&
      (!entry->exponential || governor.WouldAdmitBlock(b.size())) &&
      governor.TryReplay(entry->nodes, entry->nodes_valid)) {
    out.served = true;
    out.result.unique = entry->unique;
    out.result.exponential = entry->exponential;
    out.result.repair = entry->repair_local;
  } else {
    out.result = DecideBlockImpl(ctx, b, semantics, conflict_bounded);
  }
  out.nodes = governor.nodes_spent() - before;
  return out;
}

// The memo entry of a complete fresh decision.
CategoricityMemo::Entry MemoEntry(const FoldedBlock& f, bool nodes_valid) {
  CategoricityMemo::Entry entry;
  entry.unique = f.result.unique;
  entry.repair_local = f.result.repair;
  entry.nodes = nodes_valid ? f.nodes : 0;
  entry.nodes_valid = nodes_valid;
  entry.exponential = f.result.exponential;
  return entry;
}

}  // namespace

BlockCategoricity DecideBlockCategoricity(const ProblemContext& ctx,
                                          const Block& b,
                                          RepairSemantics semantics) {
  return DecideBlockImpl(ctx, b, semantics,
                         ctx.priority().IsConflictBounded());
}

CategoricityResult DecideCategoricity(const ProblemContext& ctx,
                                      RepairSemantics semantics,
                                      CategoricityMemo* memo) {
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
  const bool conflict_bounded = ctx.priority().IsConflictBounded();
  // Node costs are meaningful only when the caller's governor counts;
  // a worker's count is not stored otherwise.
  const bool nodes_valid = !ctx.governor().unlimited();
  DynamicBitset repair = ctx.blocks().free_facts();
  // Fresh complete verdicts, stored once the fold has joined its
  // workers, so the memo is never written while they read it.
  std::vector<std::pair<FactId, CategoricityMemo::Entry>> fresh;
  FoldOutcome outcome = FoldBlocks(
      ctx, nullptr,
      [semantics, conflict_bounded, memo](const ProblemContext& cx,
                                          const Block& b) {
        return SolveBlock(cx, b, semantics, conflict_bounded, memo);
      },
      [](const FoldedBlock& f) {
        return f.result.unique != Trilean::kUnknown;
      },
      [](const FoldedBlock& f) { return f.result.unique == Trilean::kFalse; },
      [&](const Block& b, FoldedBlock& f, bool /*budget_fired*/) {
        audit::CheckBlockCategoricity(ctx, b, semantics, f.result);
        if (memo != nullptr && f.served) {
          memo->NoteHit();
        } else if (memo != nullptr) {
          memo->NoteMiss();
          if (f.result.unique != Trilean::kUnknown) {
            fresh.emplace_back(BlockKey(b), MemoEntry(f, nodes_valid));
          }
        }
        switch (f.result.unique) {
          case Trilean::kFalse:
            result.verdict = Categoricity::kAmbiguous;
            result.ambiguous_block = b.id;
            return FoldStep::Stop();
          case Trilean::kUnknown:
            result.unknown_reason = std::move(f.result.unknown_reason);
            return FoldStep::Stop();
          case Trilean::kTrue:
            break;
        }
        OrBlockMask(b, f.result.repair, &repair);
        return FoldStep::Exact();
      });
  for (auto& [key, entry] : fresh) {
    memo->Store(key, semantics, std::move(entry));
  }
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
