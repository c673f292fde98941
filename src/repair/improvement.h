// Copyright (c) prefrep contributors.
// Global and Pareto improvements (Definition 2.4).  Given consistent
// subinstances J and J′ of a prioritizing instance (I, ≻):
//
//  * J′ is a *global improvement* of J if J′ ≠ J and every fact
//    f′ ∈ J \ J′ has some f ∈ J′ \ J with f ≻ f′;
//  * J′ is a *Pareto improvement* of J if some fact f ∈ J′ \ J has
//    f ≻ f′ for every f′ ∈ J \ J′.
//
// These are the definitional checkers; every algorithm in this library
// that reports a non-optimality witness has that witness re-verified by
// these functions in the test suite.

#ifndef PREFREP_REPAIR_IMPROVEMENT_H_
#define PREFREP_REPAIR_IMPROVEMENT_H_

#include <optional>
#include <string>

#include "base/dynamic_bitset.h"
#include "conflicts/conflicts.h"
#include "priority/priority.h"

namespace prefrep {

/// True iff `improved` is a global improvement of `j` (both must be
/// consistent; consistency of `improved` is verified, `j` is assumed).
bool IsGlobalImprovement(const ConflictGraph& cg, const PriorityRelation& pr,
                         const DynamicBitset& j,
                         const DynamicBitset& improved);

/// True iff `improved` is a Pareto improvement of `j`.
bool IsParetoImprovement(const ConflictGraph& cg, const PriorityRelation& pr,
                         const DynamicBitset& j,
                         const DynamicBitset& improved);

/// An improvement witness: the subinstance found to improve J, plus a
/// human-readable explanation of how it was found.
struct ImprovementWitness {
  DynamicBitset improvement;
  std::string explanation;

  bool operator==(const ImprovementWitness&) const = default;
};

/// Outcome of a preferred-repair check.  `verdict` answers the decision
/// problem three-valuedly: kYes / kNo are definite; kUnknown means a
/// resource budget (see base/governor.h) ran out before the answer was
/// certified, with `unknown_reason` saying what fired.  `optimal`
/// mirrors `verdict == kYes` for the (dominant) callers that never run
/// under a budget; such callers must hold `known()` before trusting it.
/// When the verdict is kNo and the algorithm produces witnesses,
/// `witness` holds an improving subinstance; an unknown result never
/// carries a witness — cancellation must not leak a torn one.
struct [[nodiscard]] CheckResult {
  enum class Verdict { kYes, kNo, kUnknown };

  bool optimal = false;
  std::optional<ImprovementWitness> witness;
  Verdict verdict = Verdict::kNo;
  std::string unknown_reason;

  bool known() const { return verdict != Verdict::kUnknown; }

  bool operator==(const CheckResult&) const = default;

  static CheckResult Optimal() {
    return CheckResult{true, std::nullopt, Verdict::kYes, {}};
  }
  static CheckResult NotOptimal(DynamicBitset improvement,
                                std::string explanation) {
    return CheckResult{false,
                       ImprovementWitness{std::move(improvement),
                                          std::move(explanation)},
                       Verdict::kNo,
                       {}};
  }
  /// A definite "not optimal" from an algorithm that decides without
  /// exhibiting an improvement.
  static CheckResult NotOptimalNoWitness() {
    return CheckResult{false, std::nullopt, Verdict::kNo, {}};
  }
  /// Budget ran out: neither optimality nor an improvement was
  /// certified.  `reason` should come from ResourceGovernor::CauseString.
  static CheckResult Unknown(std::string reason) {
    return CheckResult{false, std::nullopt, Verdict::kUnknown,
                       std::move(reason)};
  }
};

}  // namespace prefrep

#endif  // PREFREP_REPAIR_IMPROVEMENT_H_
