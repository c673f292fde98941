// Copyright (c) prefrep contributors.
// Audit-mode bodies (see audit.h).  Baselines are definitional: repair
// enumeration (repair/exhaustive.h) and the improvement checkers of
// Definition 2.4 (repair/improvement.h) — never the algorithm under
// audit.  In regular builds this translation unit only carries the
// test-only fault-injection flag.

#include "repair/audit.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "io/text_format.h"
#include "repair/exhaustive.h"
#include "repair/improvement.h"
#include "repair/subinstance_ops.h"

namespace prefrep {
namespace audit {
namespace internal {

namespace {
// Atomic: parallel workers consult the flag mid-solve while a test
// thread may be toggling it.
std::atomic<bool> g_force_wrong_verdict{false};
}  // namespace

void ForceWrongVerdictForTesting(bool enabled) {
  g_force_wrong_verdict.store(enabled, std::memory_order_relaxed);
}

bool ForcingWrongVerdict() {
  return g_force_wrong_verdict.load(std::memory_order_relaxed);
}

#if PREFREP_AUDIT_ENABLED

namespace {

// Prints the failure and the offending instance in the io/text_format
// grammar, then aborts.  The dump can be replayed through prefrepctl or
// ParseProblemText directly.
[[noreturn]] void Fail(const Instance& instance, const PriorityRelation* pr,
                       const DynamicBitset* j, const std::string& what) {
  std::string dump = ProblemToText(instance, pr, j);
  std::fprintf(stderr,
               "[prefrep audit] %s\n"
               "[prefrep audit] replay input (io/text_format):\n%s",
               what.c_str(), dump.c_str());
  PREFREP_FATAL("audit failed — replay dump above");
}

// Definitional Pareto-optimality of J restricted to block `b`: no
// block-repair of b yields a Pareto improvement of J.  Scanning
// block-repairs is complete: extending an improvement to maximal within
// the block only shrinks J \ J′, which preserves the witness fact.
bool ExhaustiveParetoBlockOptimal(const ConflictGraph& cg,
                                  const PriorityRelation& pr, const Block& b,
                                  const DynamicBitset& j) {
  bool optimal = true;
  ForEachRepairWithin(cg, b.fact_list, [&](const DynamicBitset& r) {
    DynamicBitset candidate = j;  // (J \ b) ∪ r
    for (FactId f : b.fact_list) {
      candidate.set(f, r.test(f));
    }
    if (IsParetoImprovement(cg, pr, j, candidate)) {
      optimal = false;
      return false;
    }
    return true;
  });
  return optimal;
}

// The definitional optimal block-repair set of `b` under `semantics`:
// pairwise-filters the block-repair enumeration through the
// Definition 2.4 improvement checkers.  Empty optional for completion
// semantics (no independent polynomial-free baseline exists).
std::optional<std::vector<DynamicBitset>> BaselineOptimalBlockRepairs(
    const ProblemContext& ctx, const Block& b, RepairSemantics semantics) {
  if (semantics == RepairSemantics::kCompletion) {
    return std::nullopt;
  }
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  std::vector<DynamicBitset> all = AllRepairsWithin(cg, b.fact_list);
  std::vector<DynamicBitset> optimal;
  for (const DynamicBitset& r : all) {
    bool is_optimal = true;
    for (const DynamicBitset& other : all) {
      bool improves = semantics == RepairSemantics::kGlobal
                          ? IsGlobalImprovement(cg, pr, r, other)
                          : IsParetoImprovement(cg, pr, r, other);
      if (improves) {
        is_optimal = false;
        break;
      }
    }
    if (is_optimal) {
      optimal.push_back(r);
    }
  }
  return optimal;
}

std::string BlockTag(const BlockSolver& solver, const Block& b) {
  return std::string(solver.Name()) + " on block " + std::to_string(b.id) +
         " (" + std::to_string(b.size()) + " facts)";
}

}  // namespace

void BlockVerdictImpl(const ProblemContext& ctx, const BlockSolver& solver,
                      const Block& b, const DynamicBitset& j,
                      const CheckResult& result) {
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  if (!result.known()) {
    // A budget-degraded verdict asserts nothing — except that it must
    // not leak a torn witness from the cancelled enumeration.
    if (result.witness.has_value()) {
      Fail(cg.instance(), &pr, &j,
           BlockTag(solver, b) +
               " returned an unknown verdict that carries a witness");
    }
    return;
  }
  if (!result.optimal && result.witness.has_value()) {
    const DynamicBitset& w = result.witness->improvement;
    bool valid = true;
    switch (solver.Semantics()) {
      case RepairSemantics::kGlobal:
        valid = IsGlobalImprovement(cg, pr, j, w);
        break;
      case RepairSemantics::kPareto:
        valid = IsParetoImprovement(cg, pr, j, w);
        break;
      case RepairSemantics::kCompletion:
        break;  // completion checks report no witnesses
    }
    if (!valid) {
      Fail(cg.instance(), &pr, &j,
           BlockTag(solver, b) + " reported a witness that is no " +
               "improvement of J: " + result.witness->explanation);
    }
  }
  if (!solver.Polynomial() || b.size() > kMaxVerdictBlock) {
    return;
  }
  // The baselines run on an ungoverned twin of the context: an audit
  // cross-check must stay exact (and must not consume the caller's
  // budget) even when the audited call itself is being cancelled.
  ProblemContext ungoverned(cg, pr);
  switch (solver.Semantics()) {
    case RepairSemantics::kGlobal: {
      CheckResult baseline =
          ExhaustiveBlockSolver().CheckBlock(ungoverned, b, j);
      if (baseline.optimal != result.optimal) {
        Fail(cg.instance(), &pr, &j,
             BlockTag(solver, b) + " said " +
                 (result.optimal ? "optimal" : "not optimal") +
                 " but the exhaustive baseline disagrees");
      }
      break;
    }
    case RepairSemantics::kPareto: {
      bool baseline = ExhaustiveParetoBlockOptimal(cg, pr, b, j);
      if (baseline != result.optimal) {
        Fail(cg.instance(), &pr, &j,
             BlockTag(solver, b) + " said " +
                 (result.optimal ? "Pareto-optimal" : "not Pareto-optimal") +
                 " but the Pareto enumeration baseline disagrees");
      }
      break;
    }
    case RepairSemantics::kCompletion: {
      // No enumeration baseline, but completion-optimal ⊆ globally-
      // optimal [SCM]: a positive completion verdict on a block whose
      // restriction is globally improvable is certainly wrong.
      if (result.optimal) {
        CheckResult global =
            ExhaustiveBlockSolver().CheckBlock(ungoverned, b, j);
        if (!global.optimal) {
          Fail(cg.instance(), &pr, &j,
               BlockTag(solver, b) +
                   " said completion-optimal but the block restriction is "
                   "not even globally-optimal (completion ⊆ global)");
        }
      }
      break;
    }
  }
}

void BlockRepairSetImpl(const ProblemContext& ctx, const BlockSolver& solver,
                        const Block& b, const std::vector<uint64_t>& repairs) {
  if (!solver.Polynomial() || b.size() > kMaxSetBlock) {
    return;
  }
  std::optional<std::vector<DynamicBitset>> baseline =
      BaselineOptimalBlockRepairs(ctx, b, solver.Semantics());
  if (!baseline.has_value()) {
    return;
  }
  const Instance& instance = ctx.conflict_graph().instance();
  if (repairs.size() != baseline->size()) {
    Fail(instance, &ctx.priority(), nullptr,
         BlockTag(solver, b) + " materialized " +
             std::to_string(repairs.size()) +
             " optimal block-repairs; the enumeration baseline has " +
             std::to_string(baseline->size()));
  }
  for (uint64_t r : repairs) {
    DynamicBitset repair(instance.num_facts());
    OrBlockMask(b, r, &repair);
    if (std::find(baseline->begin(), baseline->end(), repair) ==
        baseline->end()) {
      Fail(instance, &ctx.priority(), &repair,
           BlockTag(solver, b) +
               " materialized a block-repair (dumped as J) that the "
               "enumeration baseline rejects as non-optimal");
    }
  }
}

void ParetoWitnessImpl(const ConflictGraph& cg, const PriorityRelation& pr,
                       const DynamicBitset& j, const CheckResult& result) {
  if (result.optimal || !result.witness.has_value()) {
    return;
  }
  if (!IsParetoImprovement(cg, pr, j, result.witness->improvement)) {
    Fail(cg.instance(), &pr, &j,
         "FindParetoImprovement reported a witness that is no Pareto "
         "improvement of J: " +
             result.witness->explanation);
  }
}

void ConstructedRepairImpl(const ConflictGraph& cg, const PriorityRelation& pr,
                           const DynamicBitset& repair, const char* origin,
                           const DynamicBitset& universe) {
  if (!repair.IsSubsetOf(universe)) {
    Fail(cg.instance(), &pr, &repair,
         std::string(origin) +
             " produced a repair with facts outside its universe");
  }
  if (!IsConsistent(cg, repair)) {
    Fail(cg.instance(), &pr, &repair,
         std::string(origin) + " produced an inconsistent subinstance "
                               "(dumped as J)");
  }
  FactId missing = kInvalidFactId;
  (universe - repair).ForEach([&](size_t f) {
    if (missing != kInvalidFactId) {
      return;
    }
    for (FactId u : cg.neighbors(static_cast<FactId>(f))) {
      if (repair.test(u)) {
        return;
      }
    }
    missing = static_cast<FactId>(f);
  });
  if (missing != kInvalidFactId) {
    Fail(cg.instance(), &pr, &repair,
         std::string(origin) + " produced a non-maximal repair: " +
             cg.instance().FactToString(missing) +
             " can be added without conflict");
  }
  if (universe.count() > kMaxWholeInstance) {
    return;
  }
  // Greedy outputs are completion-optimal, hence globally- and
  // Pareto-optimal [SCM].  Optimal iff no repair of the universe
  // improves the output (optimality quantifies over repairs, which are
  // maximal, so enumerating them is complete).
  bool global_ok = true;
  bool pareto_ok = true;
  std::vector<FactId> facts;
  universe.ForEach([&](size_t f) { facts.push_back(static_cast<FactId>(f)); });
  ForEachRepairWithin(cg, facts, [&](const DynamicBitset& r) {
    if (IsGlobalImprovement(cg, pr, repair, r)) {
      global_ok = false;
    }
    if (IsParetoImprovement(cg, pr, repair, r)) {
      pareto_ok = false;
    }
    return global_ok && pareto_ok;
  });
  if (!global_ok) {
    Fail(cg.instance(), &pr, &repair,
         std::string(origin) +
             " produced a repair that is not globally-optimal "
             "within its universe");
  }
  if (!pareto_ok) {
    Fail(cg.instance(), &pr, &repair,
         std::string(origin) +
             " produced a repair that is not Pareto-optimal "
             "within its universe");
  }
}

void ConstructedBlockRepairImpl(const ConflictGraph& cg,
                                const PriorityRelation& pr,
                                const std::vector<FactId>& facts,
                                const DynamicBitset& mask,
                                const char* origin) {
  if (mask.size() != facts.size()) {
    Fail(cg.instance(), &pr, nullptr,
         std::string(origin) +
             " produced a block mask whose size is not its block's");
  }
  DynamicBitset repair(cg.num_facts());
  mask.ForEach([&](size_t i) { repair.set(facts[i]); });
  if (!IsConsistent(cg, repair)) {
    Fail(cg.instance(), &pr, &repair,
         std::string(origin) +
             " produced an inconsistent block-repair (dumped as J)");
  }
  for (size_t i = 0; i < facts.size(); ++i) {
    if (mask.test(i)) {
      continue;
    }
    bool blocked = false;
    for (FactId u : cg.neighbors(facts[i])) {
      blocked = blocked || repair.test(u);
    }
    if (!blocked) {
      Fail(cg.instance(), &pr, &repair,
           std::string(origin) + " produced a non-maximal block-repair: " +
               cg.instance().FactToString(facts[i]) +
               " can be added without conflict");
    }
  }
}

void CompletionVerdictImpl(const ConflictGraph& cg, const PriorityRelation& pr,
                           const DynamicBitset& j,
                           const std::vector<FactId>& facts,
                           const CheckResult& result) {
  if (!result.optimal) {
    return;  // negative completion verdicts carry no witness to audit
  }
  DynamicBitset accepted(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    accepted.set(i, j.test(facts[i]));
  }
  ConstructedBlockRepairImpl(cg, pr, facts, accepted,
                             "CheckCompletionOptimal (accepted restriction)");
}

#endif  // PREFREP_AUDIT_ENABLED

}  // namespace internal
}  // namespace audit
}  // namespace prefrep
