// Copyright (c) prefrep contributors.
// PREFREP_AUDIT — compile-time-gated runtime self-verification.
//
// The polynomial checkers of Theorem 3.1 / Theorem 7.1 and the per-block
// dispatch layer are trusted oracles: a silent bug in them invalidates
// every downstream experiment.  A build configured with -DPREFREP_AUDIT=ON
// (the `audit` CMake preset, layered on ASan) therefore cross-validates,
// at runtime:
//
//   * every polynomial per-block verdict against the exhaustive baseline
//     (repair enumeration) on blocks of at most kMaxVerdictBlock facts —
//     Pareto verdicts against the definitional Pareto enumeration,
//     completion verdicts against the completion ⊆ globally-optimal
//     inclusion [SCM];
//   * every improvement witness against the definitional checkers of
//     repair/improvement.h (Definition 2.4);
//   * every constructed repair for consistency and ⊆-maximality (the
//     repair postconditions of §2.2);
//   * per-block optimal-repair sets (which counting, enumeration, CQA
//     and categoricity all fold) against the enumeration baseline on
//     blocks of at most kMaxSetBlock facts;
//   * the block decomposition as a true partition into the connected
//     components of the conflict graph joined with the priority edges
//     between facts with conflicts (hook lives in conflicts/blocks.cc —
//     the conflicts layer cannot include this header).
//
// A failed audit prints the offending instance in the io/text_format
// grammar — paste it into `prefrepctl` or ParseProblemText to replay —
// and aborts.  In regular builds every entry point below compiles to a
// no-op, so call sites stay unconditional.

#ifndef PREFREP_REPAIR_AUDIT_H_
#define PREFREP_REPAIR_AUDIT_H_

#include <vector>

#include "model/context.h"
#include "repair/block_solver.h"

namespace prefrep {
namespace audit {

/// True when the library was compiled with -DPREFREP_AUDIT=ON.
constexpr bool Enabled() { return PREFREP_AUDIT_ENABLED != 0; }

/// Largest block whose polynomial verdicts are cross-validated against
/// the 2^{|block|} exhaustive baseline.
inline constexpr size_t kMaxVerdictBlock = 12;

/// Largest block whose optimal-repair sets are cross-validated (the set
/// baseline is quadratic in the 2^{|block|} enumeration).
inline constexpr size_t kMaxSetBlock = 8;

/// Largest whole instance (facts in its universe) whose categoricity
/// verdicts and constructed repairs are cross-validated.
inline constexpr size_t kMaxWholeInstance = 12;

namespace internal {

// Out-of-line audit bodies; defined (non-trivially) only in audit
// builds.  Call the inline wrappers below instead.
void BlockVerdictImpl(const ProblemContext& ctx, const BlockSolver& solver,
                      const Block& b, const DynamicBitset& j,
                      const CheckResult& result);
void BlockRepairSetImpl(const ProblemContext& ctx, const BlockSolver& solver,
                        const Block& b, const std::vector<uint64_t>& repairs);
void ParetoWitnessImpl(const ConflictGraph& cg, const PriorityRelation& pr,
                       const DynamicBitset& j, const CheckResult& result);
void ConstructedRepairImpl(const ConflictGraph& cg, const PriorityRelation& pr,
                           const DynamicBitset& repair, const char* origin,
                           const DynamicBitset& universe);
void ConstructedBlockRepairImpl(const ConflictGraph& cg,
                                const PriorityRelation& pr,
                                const std::vector<FactId>& facts,
                                const DynamicBitset& mask,
                                const char* origin);
void CompletionVerdictImpl(const ConflictGraph& cg, const PriorityRelation& pr,
                           const DynamicBitset& j,
                           const std::vector<FactId>& facts,
                           const CheckResult& result);

/// Test-only fault injection: while enabled, AuditedCheckBlock corrupts
/// every verdict it returns *before* auditing it, so a test can prove
/// the audit actually fires (see tests/audit_death_test.cc).  Defined in
/// every build (the flag is simply never read without PREFREP_AUDIT).
void ForceWrongVerdictForTesting(bool enabled);
bool ForcingWrongVerdict();

}  // namespace internal

/// Cross-validates a per-block verdict produced by `solver` (witness
/// validity always; exhaustive baseline when the solver is polynomial
/// and |b| ≤ kMaxVerdictBlock).
inline void CheckBlockVerdict(const ProblemContext& ctx,
                              const BlockSolver& solver, const Block& b,
                              const DynamicBitset& j,
                              const CheckResult& result) {
#if PREFREP_AUDIT_ENABLED
  internal::BlockVerdictImpl(ctx, solver, b, j, result);
#else
  (void)ctx;
  (void)solver;
  (void)b;
  (void)j;
  (void)result;
#endif
}

/// Cross-validates a materialized per-block optimal-repair set (one
/// block mask per block-repair, conflicts/blocks.h).
inline void CheckBlockRepairSet(const ProblemContext& ctx,
                                const BlockSolver& solver, const Block& b,
                                const std::vector<uint64_t>& repairs) {
#if PREFREP_AUDIT_ENABLED
  internal::BlockRepairSetImpl(ctx, solver, b, repairs);
#else
  (void)ctx;
  (void)solver;
  (void)b;
  (void)repairs;
#endif
}

/// Verifies that a Pareto non-optimality witness is a genuine Pareto
/// improvement (Definition 2.4).
inline void CheckParetoWitness(const ConflictGraph& cg,
                               const PriorityRelation& pr,
                               const DynamicBitset& j,
                               const CheckResult& result) {
#if PREFREP_AUDIT_ENABLED
  internal::ParetoWitnessImpl(cg, pr, j, result);
#else
  (void)cg;
  (void)pr;
  (void)j;
  (void)result;
#endif
}

/// Postcondition for constructed repairs of the facts in `universe`:
/// consistent, ⊆-maximal within `universe`, and on small universes
/// globally- and Pareto-optimal (the completion ⊆ global inclusion the
/// construction relies on).  A resident session's instance may carry
/// tombstoned facts outside its universe (serve/session.h), which are
/// neither addable nor allowed to appear in the repair.
inline void CheckConstructedRepair(const ConflictGraph& cg,
                                   const PriorityRelation& pr,
                                   const DynamicBitset& repair,
                                   const char* origin,
                                   const DynamicBitset& universe) {
#if PREFREP_AUDIT_ENABLED
  internal::ConstructedRepairImpl(cg, pr, repair, origin, universe);
#else
  (void)cg;
  (void)pr;
  (void)repair;
  (void)origin;
  (void)universe;
#endif
}

/// Postcondition for constructed block-repairs: `mask` (bit i =
/// facts[i]) names a consistent subset of `facts` that is maximal
/// within `facts`.
inline void CheckConstructedBlockRepair(const ConflictGraph& cg,
                                        const PriorityRelation& pr,
                                        const std::vector<FactId>& facts,
                                        const DynamicBitset& mask,
                                        const char* origin) {
#if PREFREP_AUDIT_ENABLED
  internal::ConstructedBlockRepairImpl(cg, pr, facts, mask, origin);
#else
  (void)cg;
  (void)pr;
  (void)facts;
  (void)mask;
  (void)origin;
#endif
}

/// Postcondition for positive completion verdicts: J ∩ facts must be a
/// repair of `facts` (a block, or the whole instance).
inline void CheckCompletionVerdict(const ConflictGraph& cg,
                                   const PriorityRelation& pr,
                                   const DynamicBitset& j,
                                   const std::vector<FactId>& facts,
                                   const CheckResult& result) {
#if PREFREP_AUDIT_ENABLED
  internal::CompletionVerdictImpl(cg, pr, j, facts, result);
#else
  (void)cg;
  (void)pr;
  (void)j;
  (void)facts;
  (void)result;
#endif
}

}  // namespace audit
}  // namespace prefrep

#endif  // PREFREP_REPAIR_AUDIT_H_
