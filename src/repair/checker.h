// Copyright (c) prefrep contributors.
// The unified preferred-repair checker.  It classifies the schema along
// the dichotomy of the selected priority mode (Theorem 3.1 for ordinary
// priorities, Theorem 7.1 for cross-conflict ones) and dispatches each
// check to the matching polynomial algorithm, falling back to the exact
// exponential baseline on the coNP-complete side.
//
// Both modes exploit Proposition 3.5 and block locality: conflicts,
// and the priority edges between facts with conflicts, stay inside one
// block (conflicts/blocks.h), so J is globally-optimal iff every
// conflict-free fact is present and each block restriction J|b is
// optimal — the checker therefore routes block by block through the
// BlockSolver layer (repair/block_solver.h), and a schema that mixes
// tractable and hard relations only pays 2^{|block|} on the hard
// relations' blocks instead of 2^n.  Ordinary mode picks each block's
// algorithm by its relation's Theorem 3.1 class; cross-conflict mode
// picks one algorithm for every block by the schema's Theorem 7.1
// class, and its priority edges may join blocks of two relations.

#ifndef PREFREP_REPAIR_CHECKER_H_
#define PREFREP_REPAIR_CHECKER_H_

#include <memory>
#include <string>
#include <vector>

#include "model/context.h"
#include "repair/improvement.h"

namespace prefrep {

/// Configuration for the unified checker.
struct CheckerOptions {
  /// Which priority relations the problem admits; selects the dichotomy.
  PriorityMode mode = PriorityMode::kConflictOnly;
};

/// Outcome of a dispatched check: the answer plus the route taken.
struct CheckOutcome {
  CheckResult result;
  /// One entry per algorithm invocation, e.g.
  /// "BookLoc: GRepCheck1FD ({1} -> {1, 2}) over 2 block(s)".
  std::vector<std::string> route;
  /// What the budget allowed: which blocks were solved exactly vs
  /// abandoned.  Degraded() is false whenever no budget fired.
  DegradationReport degradation;
};

/// A checker bound to one prioritizing instance.  Builds the conflict
/// graph, the schema classifications and the block decomposition once
/// (through a ProblemContext); individual checks are then as cheap as
/// the dispatched algorithm.
class RepairChecker {
 public:
  /// The priority must be validated for the mode in `options` (checked).
  /// Builds and owns a fresh ProblemContext.
  RepairChecker(const Instance& instance, const PriorityRelation& priority,
                CheckerOptions options = {});

  /// Borrows an existing context (must outlive the checker), sharing its
  /// cached artifacts with other consumers of the same problem.  Checks
  /// run under the context's governor, where a budget turns the
  /// exponential fallbacks' answers into kUnknown instead of letting
  /// them run forever (docs/robustness.md).
  explicit RepairChecker(const ProblemContext& context,
                         CheckerOptions options = {});

  /// The shared problem state this checker dispatches from.
  const ProblemContext& context() const { return *ctx_; }

  const ConflictGraph& conflict_graph() const {
    return ctx_->conflict_graph();
  }
  const SchemaClassification& classification() const {
    return ctx_->classification();
  }
  const CcpSchemaClassification& ccp_classification() const {
    return ctx_->ccp_classification();
  }

  /// Whether every dispatched global check runs in polynomial time.
  bool SchemaIsTractable() const;

  /// Plain repair checking: is J a maximal consistent subinstance?
  bool IsRepair(const DynamicBitset& j) const;

  /// Globally-optimal repair checking (the paper's central problem).
  Result<CheckOutcome> CheckGloballyOptimal(const DynamicBitset& j) const;

  /// Pareto-optimal repair checking (PTIME for every schema and mode).
  CheckResult CheckParetoOptimal(const DynamicBitset& j) const;

  /// Completion-optimal repair checking (PTIME; ordinary mode only).
  CheckResult CheckCompletionOptimal(const DynamicBitset& j) const;

 private:
  Result<CheckOutcome> CheckConflictOnly(const DynamicBitset& j) const;
  Result<CheckOutcome> CheckCrossConflict(const DynamicBitset& j) const;

  std::unique_ptr<ProblemContext> owned_ctx_;
  const ProblemContext* ctx_;
  CheckerOptions options_;
};

}  // namespace prefrep

#endif  // PREFREP_REPAIR_CHECKER_H_
