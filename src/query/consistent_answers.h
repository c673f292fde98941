// Copyright (c) prefrep contributors.
// Consistent query answering under preferred repairs — the paper's
// stated next step ("the classification of the computational complexity
// of ... consistent query answering, in the framework of preferred
// repairs", §1 and §8).
//
// The consistent answers of Q on (I, ≻) under a repair semantics σ are
//     ⋂ { Q(J) : J is a σ-optimal repair of I }
// (for σ = subset-repairs this is the classical Arenas–Bertossi–Chomicki
// notion).  This module computes them by enumeration — exact but
// exponential in general, matching the problem's hardness; it exists to
// let users experiment with the open problem, not as a claimed
// polynomial algorithm.

#ifndef PREFREP_QUERY_CONSISTENT_ANSWERS_H_
#define PREFREP_QUERY_CONSISTENT_ANSWERS_H_

#include "model/context.h"
#include "priority/priority.h"
#include "query/conjunctive_query.h"
#include "repair/exhaustive.h"

namespace prefrep {

/// Which repairs the intersection ranges over.
enum class AnswerSemantics {
  kAllRepairs,   ///< classical consistent answers (no preferences)
  kGlobal,       ///< globally-optimal repairs only
  kPareto,       ///< Pareto-optimal repairs only
  kCompletion,   ///< completion-optimal repairs only
};

/// The preferred-repair semantics an answer semantics ranges over
/// (kGlobal for kAllRepairs, which has none).
RepairSemantics ToRepairSemantics(AnswerSemantics semantics);

/// What the repair set an answer ranged over looked like (reported
/// through CqaOptions::path).
enum class CqaPath {
  /// The optimal-repair product has one member: every block's optimal
  /// set is a singleton (the categorical case, classify/categoricity.h),
  /// so the answer is one query evaluation.
  kCategorical,
  /// Any other answer: several repairs intersected, every answer under
  /// kAllRepairs, and every unknown one.
  kEnumeration,
};

/// Short human-readable name ("categorical" / "enumeration").
const char* CqaPathName(CqaPath value);

/// Reporting options of the *Bounded entry points.
struct CqaOptions {
  /// When non-null, receives the shape of the repair set (CqaPath).
  CqaPath* path = nullptr;
};

/// The consistent answers of `query` on the context's prioritizing
/// instance under the given semantics.  Exponential in general (repair
/// enumeration); intended for small instances and experimentation.  One
/// context shares its conflict graph, block decomposition and
/// classifications across repeated queries, and optimal-repair
/// enumeration goes through the per-block product of
/// repair/block_solver.h.  Each is its *Bounded form below, CHECK-fatal
/// when that form cannot decide (a bool cannot say "unknown").
std::vector<ConjunctiveQuery::AnswerTuple> ConsistentAnswers(
    const ProblemContext& ctx, const ConjunctiveQuery& query,
    AnswerSemantics semantics);
/// Boolean-query variant: true iff Q holds in *every* σ-optimal repair.
bool CertainlyTrue(const ProblemContext& ctx, const ConjunctiveQuery& query,
                   AnswerSemantics semantics);
/// True iff Q holds in *some* σ-optimal repair (possible answers).
bool PossiblyTrue(const ProblemContext& ctx, const ConjunctiveQuery& query,
                  AnswerSemantics semantics);

/// Budget-aware variants for governed contexts (ctx.governor()).  The
/// plain overloads above are CHECK-fatal whenever these return unknown,
/// so governed callers use these instead.
///
/// Degradation contract: under the optimal-repair semantics an
/// abandoned enumeration yields kUnknown / kResourceExhausted outright,
/// because a partial per-block product contains no complete repairs to
/// even falsify with.  Under kAllRepairs every enumerated repair is
/// complete, so a definite refutation (CertainlyTrue → kFalse) or
/// confirmation (PossiblyTrue → kTrue) found before exhaustion stands.
///
/// Under kAllRepairs the repairs range over the context's own
/// universe, its free and block facts: every fact of a one-shot
/// context, and only the live facts of a resident session's, whose
/// tombstoned ids belong to no block.  The optimal-repair semantics'
/// per-block product ranges over the same facts.
///
/// Under the optimal-repair semantics the repairs are AllOptimalRepairs'
/// product of per-block optimal sets, on the caller's governor alone.
/// A block whose conflict pairs the priority totally orders gets its
/// one greedy block-repair in polynomial time (the total-priority rule
/// of OptimalSetOf, repair/block_solver.h), so degradation is
/// one-sided: such blocks still answer under budgets (notably
/// max_block) that refuse their exponential enumeration, never the
/// reverse, and every such answer equals the ungoverned ground truth
/// (tests/categoricity_test.cc, BlockStarvationDegradesNoWorse).
Result<std::vector<ConjunctiveQuery::AnswerTuple>> ConsistentAnswersBounded(
    const ProblemContext& ctx, const ConjunctiveQuery& query,
    AnswerSemantics semantics, const CqaOptions& options = {});
Trilean CertainlyTrueBounded(const ProblemContext& ctx,
                             const ConjunctiveQuery& query,
                             AnswerSemantics semantics,
                             const CqaOptions& options = {});
Trilean PossiblyTrueBounded(const ProblemContext& ctx,
                            const ConjunctiveQuery& query,
                            AnswerSemantics semantics,
                            const CqaOptions& options = {});

/// Why a *Bounded call that ran under `governor` answered unknown: the
/// governor's status when it degraded (whose message is CauseString()),
/// otherwise kResourceExhausted "repair enumeration abandoned (oversized
/// block)" — the hard block cap refuses a block even when no budget is
/// installed, and the shared unlimited governor records nothing.
Status CqaUnknownStatus(const ResourceGovernor& governor);

}  // namespace prefrep

#endif  // PREFREP_QUERY_CONSISTENT_ANSWERS_H_
