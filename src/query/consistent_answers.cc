#include "query/consistent_answers.h"

#include <algorithm>
#include <functional>

#include "classify/categoricity.h"
#include "repair/block_solver.h"

namespace prefrep {

const char* CqaPathName(CqaPath value) {
  switch (value) {
    case CqaPath::kCategorical:
      return "categorical";
    case CqaPath::kEnumeration:
      return "enumeration";
  }
  return "?";
}

RepairSemantics ToRepairSemantics(AnswerSemantics semantics) {
  switch (semantics) {
    case AnswerSemantics::kPareto:
      return RepairSemantics::kPareto;
    case AnswerSemantics::kCompletion:
      return RepairSemantics::kCompletion;
    case AnswerSemantics::kAllRepairs:
    case AnswerSemantics::kGlobal:
      break;
  }
  return RepairSemantics::kGlobal;
}

namespace {

// The categoricity pre-pass: the unique optimal repair as a singleton
// repair set when the instance is certified categorical, nullopt
// otherwise.  Runs under a PRIVATE governor derived from the caller's
// budget (same node/block/deadline dimensions, deadline anchored at the
// caller's start), so an ambiguous or undecided verdict leaves the
// caller's governor untouched and the enumeration fallback behaves
// byte-identically to a build without the pre-pass.  Worker views
// disable nested parallelism, so the view restores the caller's knob —
// the pre-pass parallelizes over blocks exactly like the enumeration
// it replaces.
std::optional<std::vector<DynamicBitset>> CategoricalRepairSet(
    const ProblemContext& ctx, RepairSemantics semantics) {
  if (ctx.governor().exhausted()) {
    return std::nullopt;  // the enumeration must observe the exhaustion
  }
  ResourceGovernor prepass(ctx.governor().budget(), ctx.governor().start());
  ProblemContext view = ctx.WorkerView(&prepass);
  view.set_parallelism(ctx.parallelism());
  CategoricityResult result = DecideCategoricity(view, semantics);
  if (result.verdict != Categoricity::kCategorical) {
    return std::nullopt;
  }
  return std::vector<DynamicBitset>{std::move(result.repair)};
}

// Streams the classical repairs of the context's universe (its free and
// block facts, ascending) to `fn` until it returns false or the budget
// fires.  Every streamed repair is complete, so answers found before the
// budget fires stand.
void StreamAllRepairs(const ProblemContext& ctx,
                      const std::function<bool(const DynamicBitset&)>& fn) {
  std::vector<FactId> facts;
  ctx.blocks().CoveredFacts().ForEach(
      [&](size_t f) { facts.push_back(static_cast<FactId>(f)); });
  ForEachRepairWithin(ctx.conflict_graph(), facts, ctx.governor(), fn);
}

// The σ-repair set to intersect over, or nullopt when the governed
// enumeration was abandoned by the budget.  An abandoned optimal-repair
// product contains no complete repairs, so there is no usable partial
// result; kAllRepairs streams real repairs and is handled separately by
// the Trilean entry points, which can still refute/confirm early.
std::optional<std::vector<DynamicBitset>> RepairsForBounded(
    const ProblemContext& ctx, AnswerSemantics semantics,
    const CqaOptions& options) {
  if (options.path != nullptr) {
    *options.path = CqaPath::kEnumeration;
  }
  ResourceGovernor& governor = ctx.governor();
  if (semantics == AnswerSemantics::kAllRepairs) {
    std::vector<DynamicBitset> out;
    StreamAllRepairs(ctx, [&](const DynamicBitset& r) {
      out.push_back(r);
      return true;
    });
    if (governor.exhausted()) {
      return std::nullopt;
    }
    return out;
  }
  const RepairSemantics rs = ToRepairSemantics(semantics);
  if (!options.force_enumeration) {
    if (std::optional<std::vector<DynamicBitset>> categorical =
            CategoricalRepairSet(ctx, rs)) {
      if (options.path != nullptr) {
        *options.path = CqaPath::kCategorical;
      }
      return categorical;
    }
  }
  std::vector<DynamicBitset> out = AllOptimalRepairs(ctx, rs);
  if (out.empty()) {
    // AllOptimalRepairs returns empty exactly when abandoned (even an
    // empty instance yields the one empty repair).
    return std::nullopt;
  }
  return out;
}

// Whether some σ-repair answers the Boolean `query` with `target`:
// kTrue when one does, kUnknown when the budget fired first, kFalse
// otherwise.  Under kAllRepairs the repairs stream, so a hit found
// before the budget fires is definite; an abandoned optimal-repair
// product holds no complete repair to look at.
Trilean SomeRepairAnswers(const ProblemContext& ctx,
                          const ConjunctiveQuery& query,
                          AnswerSemantics semantics,
                          const CqaOptions& options, bool target) {
  if (semantics == AnswerSemantics::kAllRepairs) {
    if (options.path != nullptr) {
      *options.path = CqaPath::kEnumeration;
    }
    bool found = false;
    StreamAllRepairs(ctx, [&](const DynamicBitset& repair) {
      found = query.EvaluateBoolean(ctx.instance(), repair) == target;
      return !found;
    });
    if (found) {
      return Trilean::kTrue;
    }
    return ctx.governor().exhausted() ? Trilean::kUnknown : Trilean::kFalse;
  }
  std::optional<std::vector<DynamicBitset>> repairs =
      RepairsForBounded(ctx, semantics, options);
  if (!repairs.has_value()) {
    return Trilean::kUnknown;
  }
  for (const DynamicBitset& repair : *repairs) {
    if (query.EvaluateBoolean(ctx.instance(), repair) == target) {
      return Trilean::kTrue;
    }
  }
  return Trilean::kFalse;
}

// The plain entry points cannot say "unknown": a bool/vector API cannot
// degrade, so governed callers must use the *Bounded variants.
void CheckDecided(bool decided) {
  PREFREP_CHECK_MSG(decided,
                    "repair enumeration abandoned by the resource budget — "
                    "use the *Bounded consistent-answer APIs");
}

}  // namespace

std::vector<ConjunctiveQuery::AnswerTuple> ConsistentAnswers(
    const ProblemContext& ctx, const ConjunctiveQuery& query,
    AnswerSemantics semantics) {
  Result<std::vector<ConjunctiveQuery::AnswerTuple>> answers =
      ConsistentAnswersBounded(ctx, query, semantics);
  CheckDecided(answers.ok());
  return *std::move(answers);
}

bool CertainlyTrue(const ProblemContext& ctx, const ConjunctiveQuery& query,
                   AnswerSemantics semantics) {
  const Trilean certain = CertainlyTrueBounded(ctx, query, semantics);
  CheckDecided(certain != Trilean::kUnknown);
  return certain == Trilean::kTrue;
}

bool PossiblyTrue(const ProblemContext& ctx, const ConjunctiveQuery& query,
                  AnswerSemantics semantics) {
  const Trilean possible = PossiblyTrueBounded(ctx, query, semantics);
  CheckDecided(possible != Trilean::kUnknown);
  return possible == Trilean::kTrue;
}

Result<std::vector<ConjunctiveQuery::AnswerTuple>> ConsistentAnswersBounded(
    const ProblemContext& ctx, const ConjunctiveQuery& query,
    AnswerSemantics semantics, const CqaOptions& options) {
  std::optional<std::vector<DynamicBitset>> repairs =
      RepairsForBounded(ctx, semantics, options);
  if (!repairs.has_value()) {
    return CqaUnknownStatus(ctx.governor());
  }
  std::vector<ConjunctiveQuery::AnswerTuple> intersection =
      query.Evaluate(ctx.instance(), repairs->front());
  for (size_t i = 1; i < repairs->size() && !intersection.empty(); ++i) {
    std::vector<ConjunctiveQuery::AnswerTuple> next =
        query.Evaluate(ctx.instance(), (*repairs)[i]);
    std::vector<ConjunctiveQuery::AnswerTuple> merged;
    std::set_intersection(intersection.begin(), intersection.end(),
                          next.begin(), next.end(),
                          std::back_inserter(merged));
    intersection = std::move(merged);
  }
  return intersection;
}

Trilean CertainlyTrueBounded(const ProblemContext& ctx,
                             const ConjunctiveQuery& query,
                             AnswerSemantics semantics,
                             const CqaOptions& options) {
  // Q is certain iff no repair falsifies it.
  switch (SomeRepairAnswers(ctx, query, semantics, options,
                            /*target=*/false)) {
    case Trilean::kTrue:
      return Trilean::kFalse;
    case Trilean::kFalse:
      return Trilean::kTrue;
    case Trilean::kUnknown:
      break;
  }
  return Trilean::kUnknown;
}

Trilean PossiblyTrueBounded(const ProblemContext& ctx,
                            const ConjunctiveQuery& query,
                            AnswerSemantics semantics,
                            const CqaOptions& options) {
  return SomeRepairAnswers(ctx, query, semantics, options, /*target=*/true);
}

Status CqaUnknownStatus(const ResourceGovernor& governor) {
  Status status = governor.ToStatus();
  return status.ok() ? Status::ResourceExhausted(
                           "repair enumeration abandoned (oversized block)")
                     : status;
}

}  // namespace prefrep
