#include "repair/block_solver.h"

#include <algorithm>

#include "cache/block_cache.h"
#include "repair/audit.h"
#include "repair/ccp_constant_attr.h"
#include "repair/ccp_primary_key.h"
#include "repair/completion.h"
#include "repair/construct.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"
#include "repair/pareto.h"
#include "repair/repair_walk.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

namespace {

// A maximality defect of J within the block: a block fact outside J with
// no conflict in J (conflicts never leave a block, so testing against
// the whole J is exact).  nullopt when J ∩ b is maximal.
std::optional<CheckResult> FindBlockExtension(const ProblemContext& ctx,
                                              const Block& b,
                                              const DynamicBitset& j) {
  const ConflictGraph& cg = ctx.conflict_graph();
  for (FactId g : b.fact_list) {
    if (j.test(g)) {
      continue;
    }
    bool blocked = false;
    for (FactId u : cg.neighbors(g)) {
      if (j.test(u)) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      continue;
    }
    DynamicBitset improvement = j;
    improvement.set(g);
    return CheckResult::NotOptimal(
        std::move(improvement),
        "J is not maximal: " + ctx.instance().FactToString(g) +
            " can be added without conflict");
  }
  return std::nullopt;
}

class OneFdSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "GRepCheck1FD"; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    const RelationClassification& rc = ctx.classification().relations[b.rel];
    PREFREP_CHECK_MSG(rc.kind == TractableKind::kSingleFd,
                      "block dispatched to GRepCheck1FD but its relation is "
                      "not single-fd");
    return CheckGlobalOptimalOneFd(ctx.conflict_graph(), ctx.priority(),
                                   rc.single_fd, b.fact_list, j);
  }
};

class TwoKeysSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "GRepCheck2Keys"; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    const RelationClassification& rc = ctx.classification().relations[b.rel];
    PREFREP_CHECK_MSG(rc.kind == TractableKind::kTwoKeys,
                      "block dispatched to GRepCheck2Keys but its relation is "
                      "not two-keys");
    return CheckGlobalOptimalTwoKeys(ctx.conflict_graph(), ctx.priority(),
                                     rc.key1, rc.key2, b.fact_list, j);
  }
};

// J \ b: the part of J a block-local candidate keeps.
DynamicBitset WithoutBlock(DynamicBitset j, const Block& b) {
  for (FactId f : b.fact_list) {
    j.reset(f);
  }
  return j;
}

// The exhaustive solver's per-call table: the block's compatibility
// rows (repair/repair_walk.h) and, per member, the masks of the block
// members that dominate it and that it dominates.  AdmitBlock caps
// exhaustive blocks at 63 facts, so every walk runs on one word and
// every mask below is one word.  The block must be closed under
// conflicts (see BlockSolver), so the rows hold every conflict of a
// member.
struct ExhaustiveBlockTable {
  ExhaustiveBlockTable(const ProblemContext& ctx, const Block& b)
      : rows(ctx.conflict_graph(), b.fact_list),
        dominators(b.size(), 0),
        dominated(b.size(), 0) {
    PREFREP_DCHECK(rows.words() == 1);
    PREFREP_DCHECK(std::all_of(
        b.fact_list.begin(), b.fact_list.end(), [&](FactId f) {
          const std::vector<FactId>& adj = ctx.conflict_graph().neighbors(f);
          return std::all_of(adj.begin(), adj.end(), [&](FactId g) {
            return PositionIn(b.fact_list, g) != SIZE_MAX;
          });
        }));
    const PriorityRelation& pr = ctx.priority();
    for (size_t i = 0; i < b.size(); ++i) {
      for (FactId g : pr.DominatedBy(b.fact_list[i])) {
        const size_t k = PositionIn(b.fact_list, g);
        if (k != SIZE_MAX) {
          dominators[i] |= uint64_t{1} << k;
          dominated[k] |= uint64_t{1} << i;
        }
      }
    }
  }

  // The members that some member of `r` dominates.
  uint64_t Cover(uint64_t r) const {
    uint64_t cover = 0;
    for (; r != 0; r &= r - 1) {
      cover |= dominated[static_cast<size_t>(__builtin_ctzll(r))];
    }
    return cover;
  }

  RepairWalkTable rows;
  std::vector<uint64_t> dominators;
  std::vector<uint64_t> dominated;
};

// Definition 2.4 on one block, in the table's words: for a block-repair
// r, whether (J \ b) ∪ r globally improves J — exactly
// IsGlobalImprovement(cg, pr, j, (j − b) ∪ r), for any J.  Outside the
// block the candidate equals J, so it differs from J iff r ≠ J ∩ b; no
// member conflicts with a fact outside the closed block, so it is
// consistent iff J \ b is; and it removes (J ∩ b) \ r and adds r \ J,
// the latter inside the block, so only block members can cover a
// removed fact.
struct ImprovementTest {
  uint64_t j_in_block = 0;      // J ∩ b
  bool rest_consistent = true;  // J \ b is consistent

  static ImprovementTest ForInstance(const ProblemContext& ctx,
                                     const Block& b, const DynamicBitset& j) {
    return ImprovementTest{
        ToBlockWord(b, j),
        IsConsistent(ctx.conflict_graph(), WithoutBlock(j, b))};
  }

  bool Improves(uint64_t r, const std::vector<uint64_t>& dominators) const {
    if (r == j_in_block || !rest_consistent) {
      return false;
    }
    const uint64_t added = r & ~j_in_block;
    for (uint64_t removed = j_in_block & ~r; removed != 0;
         removed &= removed - 1) {
      if ((dominators[static_cast<size_t>(__builtin_ctzll(removed))] &
           added) == 0) {
        return false;
      }
    }
    return true;
  }
};

// A block-repair and its cover (ExhaustiveBlockTable::Cover).
struct CoveredRepair {
  uint64_t repair = 0;
  uint64_t cover = 0;
};

// Definition 2.4 between two block-repairs of one block: whether
// `other` improves `r`, i.e. ImprovementTest{r.repair}.Improves(
// other.repair) — other ≠ r, and every member of r \ other has a
// dominator in other \ r.  A removed member that no member of r
// dominates has all its dominators outside r, so other \ r holds one
// iff other covers it; only the members r itself dominates need the
// per-member test.  A consistent r holds no conflicting pair, so under
// a conflict-bounded priority there are none.
bool Improves(const CoveredRepair& other, const CoveredRepair& r,
              const std::vector<uint64_t>& dominators) {
  if (other.repair == r.repair) {
    return false;
  }
  const uint64_t removed = r.repair & ~other.repair;
  if ((removed & ~r.cover & ~other.cover) != 0) {
    return false;
  }
  const uint64_t added = other.repair & ~r.repair;
  for (uint64_t m = removed & r.cover; m != 0; m &= m - 1) {
    if ((dominators[static_cast<size_t>(__builtin_ctzll(m))] & added) == 0) {
      return false;
    }
  }
  return true;
}

class ExhaustiveSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "exhaustive"; }
  bool Polynomial() const override { return false; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    // A non-maximal J ∩ b is improved by a superset block-repair, so the
    // enumeration needs no separate maximality check.
    ResourceGovernor& governor = ctx.governor();
    if (!governor.AdmitBlock(b.size())) {
      return CheckResult::Unknown(
          "block #" + std::to_string(b.id) + " (" + std::to_string(b.size()) +
          " facts) exceeds the admissible size for exhaustive solving");
    }
    const ExhaustiveBlockTable table(ctx, b);
    const ImprovementTest test = ImprovementTest::ForInstance(ctx, b, j);
    std::optional<uint64_t> found;  // the first improvement, in walk order
    RepairWalk(table.rows).Run(governor, /*use_pivot=*/true,
                               [&](const uint64_t* r) {
                                 if (test.Improves(r[0], table.dominators)) {
                                   found = r[0];
                                   return false;
                                 }
                                 return true;
                               });
    if (found.has_value()) {
      // A found improvement is definite even when the budget then fired.
      DynamicBitset witness = WithoutBlock(j, b);
      OrBlockMask(b, *found, &witness);
      return CheckResult::NotOptimal(
          std::move(witness),
          "an enumerated block-repair improves J on block " +
              std::to_string(b.id));
    }
    // An incomplete scan that found nothing proves nothing.
    if (governor.exhausted()) {
      return CheckResult::Unknown(governor.CauseString());
    }
    return CheckResult::Optimal();
  }

  // The base-class loop keeps the block-repairs CheckBlock calls
  // optimal, which costs a walk per block-repair; this one filters one
  // walk's block-repairs against each other instead.  One walk lists
  // every block-repair with its cover; then each listed r is tested
  // against the listed r′ in walk order, one Checkpoint() per pair
  // test, and is kept iff the scan ends without an improver.  That
  // decides what CheckBlock with J = r decides for every block-repair
  // r, at no more nodes: CheckBlock's walk reaches its k-th
  // block-repair after at least k checkpoints, where the scan spends k.
  std::vector<uint64_t> OptimalBlockRepairs(const ProblemContext& ctx,
                                            const Block& b) const override {
    ResourceGovernor& governor = ctx.governor();
    std::vector<uint64_t> out;
    if (!governor.AdmitBlock(b.size())) {
      return out;
    }
    const ExhaustiveBlockTable table(ctx, b);
    std::vector<CoveredRepair> listed;
    const bool walked = RepairWalk(table.rows).Run(
        governor, /*use_pivot=*/true, [&](const uint64_t* r) {
          listed.push_back(CoveredRepair{r[0], table.Cover(r[0])});
          return true;
        });
    if (!walked) {
      return out;  // the budget cut the walk short
    }
    for (const CoveredRepair& r : listed) {
      bool improved = false;
      for (const CoveredRepair& other : listed) {
        if (!governor.Checkpoint()) {
          return out;  // the members verified so far
        }
        if (Improves(other, r, table.dominators)) {
          improved = true;
          break;
        }
      }
      if (!improved) {
        out.push_back(r.repair);
      }
    }
    return out;
  }
};

class CcpPrimaryKeySolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "ccp primary-key"; }
  // Conservative: BuildCcpPrimaryKeyGraph reads the priority relation
  // itself rather than the in-block edges the fingerprint absorbs, so
  // its answers are not memoized.
  bool BlockDetermined() const override { return false; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    // The cycle criterion (Lemma 7.3) assumes J is a repair; restricted
    // to a block it assumes J ∩ b is a block-repair.
    if (std::optional<CheckResult> defect = FindBlockExtension(ctx, b, j)) {
      return *std::move(defect);
    }
    Digraph graph = BuildCcpPrimaryKeyGraph(ctx.conflict_graph(),
                                            ctx.priority(), j, b.fact_list);
    std::optional<std::vector<size_t>> cycle = graph.FindCycle();
    if (!cycle.has_value()) {
      return CheckResult::Optimal();
    }
    DynamicBitset improvement = j;
    for (size_t node : *cycle) {
      const FactId f = b.fact_list[node];
      if (j.test(f)) {
        improvement.reset(f);
      } else {
        improvement.set(f);
      }
    }
    return CheckResult::NotOptimal(
        std::move(improvement),
        "cycle in G_{J, I\\J} within block " + std::to_string(b.id));
  }
};

class CcpConstantAttrSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "ccp constant-attribute"; }
  // Conservative, as for the primary-key solver: IsGlobalImprovement
  // reads the whole priority relation.
  bool BlockDetermined() const override { return false; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    // Under a constant-attribute assignment a relation with ≥ 2
    // consistent partitions is one block whose block-repairs are exactly
    // the partitions, and a block that priority edges joined across
    // relations has one partition per relation as its block-repairs, so
    // the scan pays the product over the block's relations only (the
    // whole-instance algorithm pays it over every relation).  The
    // partitions are of the block's own facts: a resident session's
    // relation still lists tombstoned facts, which no candidate may add.
    const ConflictGraph& cg = ctx.conflict_graph();
    const PriorityRelation& pr = ctx.priority();
    if (std::optional<CheckResult> defect = FindBlockExtension(ctx, b, j)) {
      return *std::move(defect);
    }
    const DynamicBitset rest = WithoutBlock(j, b);
    CheckResult result = CheckResult::Optimal();
    ForEachConstantAttrRepair(
        ctx.instance(), b.fact_list, [&](const DynamicBitset& r) {
          DynamicBitset candidate = rest | r;
          if (!IsGlobalImprovement(cg, pr, j, candidate)) {
            return true;  // includes the block-repair J ∩ b itself
          }
          result = CheckResult::NotOptimal(
              std::move(candidate),
              "a consistent partition improves J on block " +
                  std::to_string(b.id));
          return false;
        });
    return result;
  }
};

class ParetoSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "ParetoCheck"; }
  RepairSemantics Semantics() const override {
    return RepairSemantics::kPareto;
  }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    return FindParetoImprovement(ctx.conflict_graph(), ctx.priority(), j,
                                 b.fact_list);
  }
};

class CompletionSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "CompletionCheck"; }
  RepairSemantics Semantics() const override {
    return RepairSemantics::kCompletion;
  }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    return CheckCompletionOptimal(ctx.conflict_graph(), ctx.priority(), j,
                                  b.fact_list);
  }
};

}  // namespace

std::vector<uint64_t> BlockSolver::OptimalBlockRepairs(
    const ProblemContext& ctx, const Block& b) const {
  ResourceGovernor& governor = ctx.governor();
  std::vector<uint64_t> out;
  if (!governor.AdmitBlock(b.size())) {
    return out;
  }
  ForEachRepairWithin(ctx.conflict_graph(), b.fact_list, governor,
                      [&](const DynamicBitset& r) {
                        CheckResult result = CheckBlock(ctx, b, r);
                        if (result.known() && result.optimal) {
                          out.push_back(ToBlockWord(b, r));
                        }
                        return true;
                      });
  return out;
}

const BlockSolver& OneFdBlockSolver() {
  static const OneFdSolver solver;
  return solver;
}

const BlockSolver& TwoKeysBlockSolver() {
  static const TwoKeysSolver solver;
  return solver;
}

const BlockSolver& ExhaustiveBlockSolver() {
  static const ExhaustiveSolver solver;
  return solver;
}

const BlockSolver& CcpPrimaryKeyBlockSolver() {
  static const CcpPrimaryKeySolver solver;
  return solver;
}

const BlockSolver& CcpConstantAttrBlockSolver() {
  static const CcpConstantAttrSolver solver;
  return solver;
}

const BlockSolver& ParetoBlockSolver() {
  static const ParetoSolver solver;
  return solver;
}

const BlockSolver& CompletionBlockSolver() {
  static const CompletionSolver solver;
  return solver;
}

const BlockSolver& DispatchBlockSolver(const ProblemContext& ctx,
                                       const Block& b, PriorityMode mode) {
  if (mode == PriorityMode::kConflictOnly) {
    switch (ctx.classification().relations[b.rel].kind) {
      case TractableKind::kSingleFd:
        return OneFdBlockSolver();
      case TractableKind::kTwoKeys:
        return TwoKeysBlockSolver();
      case TractableKind::kHard:
        return ExhaustiveBlockSolver();
    }
    return ExhaustiveBlockSolver();
  }
  const CcpSchemaClassification& ccp = ctx.ccp_classification();
  if (ccp.primary_key_assignment) {
    return CcpPrimaryKeyBlockSolver();
  }
  if (ccp.constant_attr_assignment) {
    return CcpConstantAttrBlockSolver();
  }
  return ExhaustiveBlockSolver();
}

const BlockSolver& SolverForSemantics(const ProblemContext& ctx,
                                      const Block& b,
                                      RepairSemantics semantics) {
  switch (semantics) {
    case RepairSemantics::kGlobal:
      return DispatchBlockSolver(ctx, b,
                                 ctx.priority().IsConflictBounded()
                                     ? PriorityMode::kConflictOnly
                                     : PriorityMode::kCrossConflict);
    case RepairSemantics::kPareto:
      return ParetoBlockSolver();
    case RepairSemantics::kCompletion:
      return CompletionBlockSolver();
  }
  return ExhaustiveBlockSolver();
}

namespace block_cache_internal {

void AuditServedHit(
    const ProblemContext& ctx,
    const std::function<bool(const ProblemContext& fresh)>& fresh_matches) {
  if (!audit::Enabled()) {
    return;
  }
  ProblemContext fresh = ctx.WorkerView(&ResourceGovernor::Unlimited());
  fresh.set_block_cache(nullptr);
  PREFREP_CHECK_MSG(fresh_matches(fresh),
                    "block-solve cache hit diverges from a fresh solve "
                    "(fingerprint collision or canonicalization bug)");
}

}  // namespace block_cache_internal

namespace {

uint64_t SolverSalt(const BlockSolver& solver) {
  const std::string_view name = solver.Name();
  return HashRange(name.begin(), name.end());
}

// Only the exhaustive solver's verdicts are memoized: it is the
// non-polynomial path, and its witnesses ("an enumerated block-repair
// improves J on block #i") re-render byte-identically from the
// canonical payload — the tractable solvers' messages embed fact
// labels, which a fingerprint deliberately forgets.
CheckResult CachedCheckBlock(const BlockSolver& solver,
                             const ProblemContext& ctx, const Block& b,
                             const DynamicBitset& j) {
  const bool eligible = &solver == &ExhaustiveBlockSolver();
  return CachedBlockSolve(
      ctx, b, eligible, /*admission=*/true,
      BlockCacheKey{BlockCacheOp::kVerdict, SolverSalt(solver),
                    eligible ? CanonicalSubsetDigest(b, j) : 0},
      [&](const ProblemContext& cx) { return solver.CheckBlock(cx, b, j); },
      [&](const CheckResult& result, BlockSolveCache::Entry* entry) {
        if (!result.known() ||
            (!result.optimal && !result.witness.has_value())) {
          return false;  // unknown, or a witnessless refutation
        }
        entry->optimal = result.optimal;
        if (!result.optimal) {
          entry->witness_local = ToBlockWord(b, result.witness->improvement);
        }
        return true;
      },
      [&](BlockSolveCache::Entry&& entry) {
        if (entry.optimal) {
          return CheckResult::Optimal();
        }
        // Same enumeration index, same facts under the canonical
        // isomorphism, same message — byte-identical to the fresh solve.
        DynamicBitset witness = WithoutBlock(j, b);
        OrBlockMask(b, entry.witness_local, &witness);
        return CheckResult::NotOptimal(
            std::move(witness),
            "an enumerated block-repair improves J on block " +
                std::to_string(b.id));
      });
}

// CheckBlock through the cache and, in PREFREP_AUDIT builds,
// cross-validated against its definitional baseline (repair/audit.h).
CheckResult AuditedCheckBlock(const BlockSolver& solver,
                              const ProblemContext& ctx, const Block& b,
                              const DynamicBitset& j) {
  CheckResult result = CachedCheckBlock(solver, ctx, b, j);
  if (audit::Enabled() && audit::internal::ForcingWrongVerdict() &&
      result.known()) {
    // Test-only fault injection: corrupt the verdict so the death test
    // can prove the audit below actually fires.  An unknown verdict is
    // left alone — there is nothing to flip and the audit skips it.
    result = result.optimal ? CheckResult::NotOptimalNoWitness()
                            : CheckResult::Optimal();
  }
  audit::CheckBlockVerdict(ctx, solver, b, j, result);
  return result;
}

}  // namespace

std::vector<uint64_t> CachedOptimalBlockRepairs(const BlockSolver& solver,
                                                const ProblemContext& ctx,
                                                const Block& b) {
  return CachedBlockSolve(
      ctx, b, solver.BlockDetermined(), /*admission=*/true,
      BlockCacheKey{BlockCacheOp::kOptimalSet, SolverSalt(solver)},
      [&](const ProblemContext& cx) {
        return solver.OptimalBlockRepairs(cx, b);
      },
      [](const std::vector<uint64_t>& repairs,
         BlockSolveCache::Entry* entry) {
        entry->repairs_local = repairs;
        return !repairs.empty();  // a refused block yields nothing
      },
      [](BlockSolveCache::Entry&& entry) {
        return std::move(entry.repairs_local);
      });
}

namespace {

// Whether the priority orders every conflicting pair of `b`.  A block
// is closed under conflicts, so its members' adjacency lists hold
// exactly its conflict pairs.
bool PriorityTotalOnConflicts(const ConflictGraph& cg,
                              const PriorityRelation& pr, const Block& b) {
  for (FactId f : b.fact_list) {
    for (FactId g : cg.neighbors(f)) {
      if (g > f && !pr.Prefers(f, g) && !pr.Prefers(g, f)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

OptimalBlockSet OptimalSetOf(const ProblemContext& ctx, const Block& b,
                             RepairSemantics semantics) {
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  OptimalBlockSet set;
  // The greedy pass relies on completion semantics, which require a
  // conflict-bounded priority.
  if (pr.IsConflictBounded() && PriorityTotalOnConflicts(cg, pr, b)) {
    set.greedy = GreedyWithin(cg, pr, b.fact_list, ConstructOptions{},
                              ResourceGovernor::Unlimited());
    audit::CheckConstructedBlockRepair(cg, pr, b.fact_list, *set.greedy,
                                       "total-priority rule");
    if (audit::Enabled() && b.size() <= audit::kMaxSetBlock) {
      // The set audit of the solver this rule stands in for.
      uint64_t word = 0;
      set.greedy->ForEach([&](size_t i) { word |= uint64_t{1} << i; });
      audit::CheckBlockRepairSet(ctx, SolverForSemantics(ctx, b, semantics),
                                 b, {word});
    }
    return set;
  }
  const BlockSolver& solver = SolverForSemantics(ctx, b, semantics);
  set.words = CachedOptimalBlockRepairs(solver, ctx, b);
  ResourceGovernor& governor = ctx.governor();
  set.complete = !set.words.empty() && !governor.exhausted();
  if (set.complete) {
    audit::CheckBlockRepairSet(ctx, solver, b, set.words);
  }
  // An empty set from an unbudgeted, admissible block would be an
  // algorithmic bug, not a budget: every block has an optimal
  // block-repair.
  PREFREP_CHECK_MSG(!set.words.empty() || governor.degraded() ||
                        b.size() > ResourceGovernor::kMaxExhaustiveBlockFacts,
                    "every block admits an optimal block-repair");
  return set;
}

CheckResult CheckOptimalByBlocks(const ProblemContext& ctx,
                                 const DynamicBitset& j,
                                 RepairSemantics semantics, PriorityMode mode,
                                 size_t* failed_block,
                                 DegradationReport* degradation,
                                 const std::vector<size_t>* order) {
  if (!IsConsistent(ctx.conflict_graph(), j)) {
    return CheckResult::NotOptimalNoWitness();
  }
  // A conflict-free fact belongs to every repair; no block check would
  // notice its absence.
  const DynamicBitset missing = ctx.blocks().free_facts() - j;
  if (missing.any()) {
    if (semantics == RepairSemantics::kCompletion) {
      return CheckResult::NotOptimalNoWitness();
    }
    FactId f = static_cast<FactId>(missing.FindFirst());
    DynamicBitset improvement = j;
    improvement.set(f);
    return CheckResult::NotOptimal(
        std::move(improvement),
        "J is not maximal: " + ctx.instance().FactToString(f) +
            " has no conflicts");
  }
  // Per-block conjunction with graceful degradation: a definite kNo
  // refutes J outright (even once the budget is exhausted — the witness
  // was found before or by a polynomial solver); an unknown block is
  // recorded and skipped, so every tractable block is still answered
  // exactly; any surviving unknown makes the conjunction unknown.
  CheckResult refutation;
  FoldOutcome fold = FoldBlocks(
      ctx, order,
      [&](const ProblemContext& cx, const Block& b) {
        const BlockSolver& solver =
            semantics == RepairSemantics::kGlobal
                ? DispatchBlockSolver(cx, b, mode)
                : SolverForSemantics(cx, b, semantics);
        return AuditedCheckBlock(solver, cx, b, j);
      },
      [](const CheckResult& r) { return r.known(); },
      [](const CheckResult& r) { return r.known() && !r.optimal; },
      [&](const Block&, CheckResult& r, bool) {
        if (!r.known()) {
          return FoldStep::Abandoned(r.unknown_reason);
        }
        if (!r.optimal) {
          refutation = std::move(r);
          return FoldStep::Stop();
        }
        return FoldStep::Exact();
      });
  if (degradation != nullptr) {
    *degradation = std::move(fold.report);
  }
  if (fold.stopped()) {
    if (failed_block != nullptr) {
      *failed_block = fold.stopped_at;
    }
    return refutation;
  }
  if (!fold.first_unknown_reason.empty()) {
    return CheckResult::Unknown(std::move(fold.first_unknown_reason));
  }
  return CheckResult::Optimal();
}

std::vector<DynamicBitset> AllOptimalRepairs(const ProblemContext& ctx,
                                             RepairSemantics semantics) {
  ResourceGovernor& governor = ctx.governor();
  std::vector<DynamicBitset> out{ctx.blocks().free_facts()};
  // Per-block repair sets are enumeration order within one block, so a
  // worker's set is bitwise the serial one; the fold only has to merge
  // them in block order.
  const FoldOutcome fold = FoldBlocks(
      ctx, nullptr,
      [semantics](const ProblemContext& cx, const Block& b) {
        return OptimalSetOf(cx, b, semantics);
      },
      [](const OptimalBlockSet& set) { return set.complete; }, nullptr,
      [&](const Block& b, OptimalBlockSet& set, bool) {
        if (!set.complete) {
          // A partial cross-product is not a set of repairs.
          return FoldStep::Stop();
        }
        // The cross-product is where enumeration really explodes — the
        // per-block sets are at most 2^|block| each, but their product
        // multiplies across blocks.  Charge one checkpoint per
        // materialized repair so a node budget bounds the product
        // itself, not just the per-block solves feeding it.
        std::vector<DynamicBitset> next;
        next.reserve(out.size() * set.size());
        for (const DynamicBitset& prefix : out) {
          for (size_t i = 0; i < set.size(); ++i) {
            if (!governor.Checkpoint()) {
              return FoldStep::Stop();
            }
            next.push_back(prefix);
            set.OrMember(b, i, &next.back());
          }
        }
        out = std::move(next);
        return FoldStep::Exact();
      });
  if (fold.stopped()) {
    return {};
  }
  return out;
}

}  // namespace prefrep
