// Copyright (c) prefrep contributors.
// BlockSolver — the per-block solving interface behind the unified
// checker, counter and constructor.
//
// A block (conflicts/blocks.h) is the natural unit of work: no conflict
// and no priority edge the solvers read leaves a block, so a repair J
// is σ-optimal iff J contains every conflict-free fact and J ∩ b is a
// σ-optimal block-repair of every block b (docs/algorithms.md, "Why
// blocks are sound").  Each algorithm of the library — GRepCheck1FD,
// GRepCheck2Keys, the Pareto and completion checks, the ccp primary-key
// and constant-attribute algorithms, and the exhaustive baseline — is
// therefore exposed here as a BlockSolver that answers questions about
// one block, and every question is a fold of block answers: conjunction
// for checking, per-block union for construction, and for counting,
// enumeration, CQA and uniqueness one answer, the block's optimal set
// (OptimalSetOf): the product of the sets' sizes, their cross-product,
// and "every set has one member".
//
// Two pieces carry that algebra once for every question:
//
//   * FoldBlocks — the one per-block fold.  It owns the block order, the
//     parallel session (repair/parallel_solver.h), per-block node costs,
//     the abandoned-block list and the DegradationReport; each question
//     supplies only a per-block solve and a combine step.
//   * CachedBlockSolve — the one block-solve-cache round trip
//     (cache/block_cache.h).  It owns admission mirroring, lookup, the
//     serve decision (the governor's replay rule), the audit re-solve
//     and the complete-only store; each cached operation supplies only
//     its eligibility, key salt and payload codec.
//
// The payoff is on the exponential paths: the exhaustive fallback costs
// Σ_b 2^{|b|} instead of 2^n, so k independent hard gadgets cost k·2^c
// rather than 2^{kc} (measured in bench/bench_hard_schemas.cc).

#ifndef PREFREP_REPAIR_BLOCK_SOLVER_H_
#define PREFREP_REPAIR_BLOCK_SOLVER_H_

#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "model/context.h"
#include "repair/exhaustive.h"
#include "repair/parallel_solver.h"

namespace prefrep {

/// A per-block preferred-repair algorithm.  Implementations are
/// stateless singletons: per-relation parameters (the single FD, the two
/// keys) are read from the context's classification at call time, so one
/// instance serves every block.
///
/// All entry points require a block closed under conflicts and under
/// the priority edges between facts with conflicts: every fact a member
/// conflicts with, or shares such an edge with, is a member.  Every
/// block of a BlockDecomposition and of a resident session is closed
/// (ForEachBlockLink, conflicts/blocks.h).  Priority edges from a
/// member to a free fact are read as absent: a free fact lies in every
/// repair, so no improvement adds or removes it.
class BlockSolver {
 public:
  virtual ~BlockSolver() = default;

  /// Short algorithm name for routing diagnostics, e.g. "GRepCheck1FD".
  virtual std::string_view Name() const = 0;

  /// Whether CheckBlock runs in time polynomial in the block size.
  virtual bool Polynomial() const { return true; }

  /// The optimality notion CheckBlock decides.  The audit layer
  /// (repair/audit.h) picks its cross-validation baseline by this.
  virtual RepairSemantics Semantics() const { return RepairSemantics::kGlobal; }

  /// Whether this solver's block answers depend only on the block itself
  /// (its facts' values, conflicts and priority edges) — the
  /// precondition for memoizing them under a canonical block fingerprint
  /// (cache/block_fingerprint.h).  The ccp solvers return false: their
  /// criteria read relation-wide state (consistent partitions, the
  /// cross-conflict graph) that the fingerprint does not canonicalize.
  virtual bool BlockDetermined() const { return true; }

  /// Decides whether J ∩ b is an optimal block-repair of block `b` (this
  /// solver's optimality notion).  `j` is a whole-instance bitset and
  /// must be consistent; facts outside the block are read-only context
  /// (witnesses modify `j` inside the block only, so they remain valid
  /// whole-instance improvements).  Consistency is what lets the
  /// polynomial solvers decide on the block alone: conflicts never leave
  /// a block, so a candidate that differs from J only inside b is
  /// consistent iff it is consistent on b, and Definition 2.4 needs
  /// nothing from the other blocks.
  virtual CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                                 const DynamicBitset& j) const = 0;

  /// Materializes the optimal block-repairs of `b` in walk order, one
  /// word per block-repair: a block mask, bit i = b.fact_list[i]
  /// (conflicts/blocks.h).  One word always suffices, because
  /// AdmitBlock refuses blocks of more than 63 facts even when the
  /// governor is unarmed.  Default: filter the block-repair walk
  /// through CheckBlock — for polynomial solvers that is
  /// O(repairs · poly).  The exhaustive solver instead lists the R
  /// block-repairs of one walk and keeps those no listed block-repair
  /// improves, testing them pairwise on words (O(R²) word tests, 2R
  /// words of memory; docs/algorithms.md).  Either way the work
  /// checkpoints on ctx.governor() — once per walk node and, in the
  /// exhaustive filter, once per pair test.  A refused block yields
  /// nothing; when the budget fires the result holds the block-repairs
  /// verified before it did (check ctx.governor().exhausted(), or use
  /// OptimalSetOf, which says whether the set is complete).
  virtual std::vector<uint64_t> OptimalBlockRepairs(const ProblemContext& ctx,
                                                    const Block& b) const;
};

/// GRepCheck1FD on one block of a kSingleFd relation (Theorem 3.1):
/// every swap J[f↔g] is decided on the block's fact list alone, in
/// O(|b| · swaps(b)) (repair/global_one_fd.h).
const BlockSolver& OneFdBlockSolver();

/// GRepCheck2Keys on one block of a kTwoKeys relation (Theorem 3.1): the
/// improvement graphs are built over the block's fact list alone
/// (repair/global_two_keys.h).
const BlockSolver& TwoKeysBlockSolver();

/// The exact 2^{|block|} baseline; correct for every block and both
/// priority modes.  Polynomial() is false.
const BlockSolver& ExhaustiveBlockSolver();

/// The ccp primary-key cycle check (Lemma 7.3) restricted to one block;
/// for primary-key assignments under ccp priorities.
const BlockSolver& CcpPrimaryKeyBlockSolver();

/// The ccp constant-attribute partition scan restricted to one block
/// (one relation with ≥ 2 consistent partitions, or several that
/// priority edges joined): the product of the block's relations'
/// partition counts instead of the product over every relation.
const BlockSolver& CcpConstantAttrBlockSolver();

/// Pareto-optimality of one block restriction (PTIME, every schema).
const BlockSolver& ParetoBlockSolver();

/// Completion-optimality of one block restriction (PTIME, every schema;
/// conflict-bounded priorities only).
const BlockSolver& CompletionBlockSolver();

/// The solver the dichotomy of `mode` selects for globally-optimal
/// checking on `b`: Theorem 3.1 classifies b's relation
/// (kConflictOnly), Theorem 7.1 classifies the whole schema
/// (kCrossConflict); the hard sides get the exhaustive solver.
const BlockSolver& DispatchBlockSolver(const ProblemContext& ctx,
                                       const Block& b, PriorityMode mode);

/// The per-block checker matching a repair semantics: the dispatched
/// global solver for kGlobal, the Pareto/completion solver otherwise.
const BlockSolver& SolverForSemantics(const ProblemContext& ctx,
                                      const Block& b,
                                      RepairSemantics semantics);

/// Cache key of one per-block operation: its op tag and two op-specific
/// salts (DeriveOpKey, cache/block_fingerprint.h).
struct BlockCacheKey {
  BlockCacheOp op;
  uint64_t salt_a = 0;
  uint64_t salt_b = 0;
};

namespace block_cache_internal {

/// In audit builds, re-solves a served hit against a fresh context
/// (unlimited governor, no cache) and dies unless `fresh_matches` accepts
/// the fresh answer — the safety net for fingerprint collisions and
/// canonicalization bugs.
void AuditServedHit(
    const ProblemContext& ctx,
    const std::function<bool(const ProblemContext& fresh)>& fresh_matches);

}  // namespace block_cache_internal

/// The one block-solve-cache round trip, behind every cached per-block
/// operation (verdict, optimal set, greedy construction).  Calls
/// `solve(ctx)` directly unless a cache is installed and the op is
/// `eligible`.  Otherwise it upholds the two
/// cache invariants of docs/caching.md in one place:
///
///  * Serve only when a fresh solve would have completed too.  Ops whose
///    fresh solve applies block admission (`admission`) rerun it when
///    the governor would refuse the block, so the refusal is recorded
///    exactly as cache-off; a hit is served only when
///    ResourceGovernor::TryReplay accepts its stored node cost, which
///    it then commits, so nodes_spent() stays on the cache-off
///    trajectory.
///  * Store only complete results.  Nothing from an exhausted governor,
///    and nothing `encode` rejects (abandoned, partial or unreplayable
///    payloads), enters the table.
///
/// `encode(payload, &entry)` fills the op's payload fields and returns
/// whether it may be stored; `decode(std::move(entry))` rebuilds the
/// payload from the looked-up entry, which is the caller's own copy, so
/// it may move its payload out.  The result must equal the fresh solve
/// (audit builds re-solve every served hit and compare).  Block answers
/// are block masks, and canonical order is fact_list order, so a
/// payload is stored as solved and served as stored.
template <typename Solve, typename Encode, typename Decode>
auto CachedBlockSolve(const ProblemContext& ctx, const Block& b,
                      bool eligible, bool admission, const BlockCacheKey& key,
                      Solve&& solve, Encode&& encode, Decode&& decode)
    -> decltype(solve(ctx)) {
  using Payload = decltype(solve(ctx));
  BlockSolveCache* const cache = ctx.block_cache();
  if (cache == nullptr || !eligible) {
    return solve(ctx);
  }
  ResourceGovernor& governor = ctx.governor();
  if (admission && !governor.WouldAdmitBlock(b.size())) {
    return solve(ctx);  // records the refusal
  }
  const BlockFingerprint op_key = DeriveOpKey(
      ComputeBlockFingerprint(ctx, b), key.op, key.salt_a, key.salt_b);
  if (std::optional<BlockSolveCache::Entry> entry = cache->Lookup(op_key);
      entry.has_value() &&
      governor.TryReplay(entry->nodes, entry->nodes_valid)) {
    cache->NoteHit();
    Payload served = decode(std::move(*entry));
    if (PREFREP_AUDIT_ENABLED) {
      block_cache_internal::AuditServedHit(
          ctx, [&](const ProblemContext& fresh) {
            return solve(fresh) == served;
          });
    }
    return served;
  }
  cache->NoteMiss();
  const uint64_t nodes_before = governor.nodes_spent();
  Payload result = solve(ctx);
  BlockSolveCache::Entry stored;
  if (governor.exhausted() || !encode(result, &stored)) {
    return result;  // incomplete: never cached
  }
  stored.nodes = governor.nodes_spent() - nodes_before;
  stored.nodes_valid = !governor.unlimited();
  cache->Store(op_key, std::move(stored));
  return result;
}

/// solver.OptimalBlockRepairs through the block-solve cache: a block
/// whose fingerprint was solved before replays the stored block masks
/// instead of re-enumerating.  Only BlockDetermined() solvers are
/// cached; refused and cut-short results never are.
std::vector<uint64_t> CachedOptimalBlockRepairs(const BlockSolver& solver,
                                                const ProblemContext& ctx,
                                                const Block& b);

/// One block's σ-optimal block-repairs: the one per-block answer that
/// counting (its size), enumeration and CQA (its members) and
/// categoricity (size one) fold.  Members are block masks, bit i =
/// b.fact_list[i] (conflicts/blocks.h).
struct OptimalBlockSet {
  /// The one member the total-priority rule built, b.size() bits (any
  /// block size); nullopt when a solver answered.
  std::optional<DynamicBitset> greedy;
  /// The members a solver verified, one word each, in walk order.
  std::vector<uint64_t> words;
  /// False when the block was refused or the budget cut its solve
  /// short; `words` then holds the members verified before that.
  bool complete = true;

  size_t size() const { return greedy.has_value() ? 1 : words.size(); }

  /// ORs member `i` into the whole-instance bitset `global`.
  void OrMember(const Block& b, size_t i, DynamicBitset* global) const {
    if (greedy.has_value()) {
      OrBlockMask(b, *greedy, global);
    } else {
      OrBlockMask(b, words[i], global);
    }
  }
};

/// The σ-optimal set of block `b`.  When the priority is
/// conflict-bounded and orders every conflicting pair of `b`, the
/// block has exactly one optimal block-repair under all three
/// semantics, the greedy one ([SCM], Staworko–Chomicki–Marcinkowski):
/// it is built in polynomial time, with no checkpoint, no block
/// admission and no cache.  Otherwise the set is
/// CachedOptimalBlockRepairs(SolverForSemantics(ctx, b, σ), ctx, b).
OptimalBlockSet OptimalSetOf(const ProblemContext& ctx, const Block& b,
                             RepairSemantics semantics);

/// What a fold step made of one block (see FoldBlocks).
struct FoldStep {
  enum class Kind {
    kExact,      ///< the block's answer is exact; fold on
    kAbandoned,  ///< the budget cut the block short; record it, fold on
    kStop,       ///< the answer is settled (or lost); stop folding
  };
  Kind kind = Kind::kExact;
  /// Why an abandoned block was abandoned (may be empty).
  std::string reason;

  static FoldStep Exact() { return FoldStep{}; }
  static FoldStep Abandoned(std::string why) {
    return FoldStep{Kind::kAbandoned, std::move(why)};
  }
  static FoldStep Stop() { return FoldStep{Kind::kStop, std::string()}; }
};

/// What a fold did.
struct FoldOutcome {
  /// The block whose step returned Stop(); kNoBlock when the fold ran
  /// through every block of its order.
  size_t stopped_at = BlockDecomposition::kNoBlock;
  /// The first non-empty reason a step gave for an abandoned block.
  std::string first_unknown_reason;
  /// Blocks solved exactly vs abandoned (with each abandoned block's
  /// node cost), nodes spent and the governor's cause — as of the stop,
  /// or of the end of the fold.
  DegradationReport report;

  bool stopped() const { return stopped_at != BlockDecomposition::kNoBlock; }
};

/// The one per-block fold behind checking, counting, enumeration,
/// uniqueness and construction.  Walks the blocks of `order` (block ids;
/// nullptr = every block in id order), solving each with
/// `solve(ctx, block)` on the parallel session of
/// repair/parallel_solver.h — byte-identical to a serial pass at any
/// thread count — and hands each block's payload to `step` in order.
/// `adoptable(payload)` says whether a worker's payload may be adopted (a
/// known verdict, a complete set, …); `settles` (or nullptr) marks
/// payloads after which the fold will stop, so later blocks can be
/// cancelled.  `step(block, payload, budget_fired)` receives the block,
/// its payload (to consume) and whether the budget fired while solving
/// it, and returns what the block contributes.  The fold records
/// abandoned blocks with their node costs and fills the outcome's
/// DegradationReport, once for every question.
template <typename Solve, typename Adoptable, typename Settles, typename Step>
FoldOutcome FoldBlocks(const ProblemContext& ctx,
                       const std::vector<size_t>* order, Solve&& solve,
                       Adoptable&& adoptable, Settles&& settles, Step&& step) {
  using Payload = std::invoke_result_t<Solve&, const ProblemContext&,
                                       const Block&>;
  const BlockDecomposition& blocks = ctx.blocks();
  ResourceGovernor& governor = ctx.governor();
  std::vector<size_t> ids;
  if (order != nullptr) {
    ids = *order;
  } else {
    ids.resize(blocks.num_blocks());
    std::iota(ids.begin(), ids.end(), size_t{0});
  }
  // The session speculates every block on the worker pool (when the
  // context allows parallelism) and hands back per-block payloads that
  // are byte-identical to running `solve` serially right here, including
  // the governor's accounting.
  ParallelBlockSession<Payload> session(ctx, ids, std::forward<Solve>(solve),
                                        std::forward<Adoptable>(adoptable),
                                        std::forward<Settles>(settles));
  FoldOutcome out;
  size_t exact = 0;
  for (size_t id : ids) {
    const Block& b = blocks.block(id);
    const uint64_t nodes_before = governor.nodes_spent();
    const bool exhausted_before = governor.exhausted();
    Payload payload = session.Next(b);
    const uint64_t block_nodes = governor.nodes_spent() - nodes_before;
    FoldStep contribution =
        step(b, payload, !exhausted_before && governor.exhausted());
    if (contribution.kind == FoldStep::Kind::kStop) {
      out.stopped_at = b.id;
      break;
    }
    if (contribution.kind == FoldStep::Kind::kAbandoned) {
      if (out.first_unknown_reason.empty()) {
        out.first_unknown_reason = contribution.reason;
      }
      out.report.abandoned.push_back(BlockDegradation{
          b.id, b.size(), block_nodes, std::move(contribution.reason)});
      continue;
    }
    ++exact;
  }
  DegradationReport& report = out.report;
  report.blocks_total = blocks.num_blocks();
  report.blocks_exact = exact;
  report.blocks_abandoned = report.abandoned.size();
  report.nodes_spent = governor.nodes_spent();
  report.cause = governor.degraded() ? governor.CauseString() : std::string();
  return out;
}

/// Whole-instance σ-optimal repair checking by per-block dispatch:
/// consistency, then presence of every conflict-free fact (maximality no
/// block check would see), then the conjunction of per-block checks —
/// the solver DispatchBlockSolver picks for `mode` under global
/// semantics, the Pareto/completion solver otherwise (`mode` is then
/// ignored).  A missing conflict-free fact is witnessed except under
/// completion semantics, whose checks report no witnesses.
///
/// Blocks are checked in `order` (nullptr = id order; the unified
/// checker passes its relation-grouped order).  On failure inside a
/// block, `*failed_block` (when non-null) receives its id; otherwise it
/// is left untouched.  Under a governed context the conjunction degrades
/// per block: a definite "not optimal" returns immediately (sound even
/// after exhaustion), abandoned blocks are recorded in `*degradation`
/// (when non-null) and skipped, and if any block stayed unknown while no
/// block refuted J the overall verdict is kUnknown.  Tractable blocks
/// are still answered exactly even after the budget fires — their
/// solvers run in polynomial time and do not checkpoint.
CheckResult CheckOptimalByBlocks(const ProblemContext& ctx,
                                 const DynamicBitset& j,
                                 RepairSemantics semantics, PriorityMode mode,
                                 size_t* failed_block = nullptr,
                                 DegradationReport* degradation = nullptr,
                                 const std::vector<size_t>* order = nullptr);

/// Materializes every σ-optimal repair as {conflict-free facts} × ∏
/// per-block optimal sets (OptimalSetOf: the total-priority rule, else
/// the dispatched, polynomial where the dichotomy allows, solver);
/// each block's masks become global ids here, once.
///
/// Returns EMPTY iff the computation was abandoned: a block's set was
/// incomplete (refused, or cut short) or the governor's budget fired.  A
/// partial cross-product is never returned — its entries would not be
/// complete repairs.  Every instance has ≥ 1 optimal repair, so an
/// empty result unambiguously means "unknown", and
/// ctx.governor().ToStatus() says why.
std::vector<DynamicBitset> AllOptimalRepairs(const ProblemContext& ctx,
                                             RepairSemantics semantics);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_BLOCK_SOLVER_H_
