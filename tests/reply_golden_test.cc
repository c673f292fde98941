// Golden transcripts of the user-visible answer surface.  The other
// batteries compare configurations of one build against each other
// (threads, cache, rebuild); this one compares every configuration
// against text recorded once and committed under tests/golden/, so a
// change that alters what users read — a route line, a witness, an
// explanation, a degradation summary, a count, a session reply — fails
// here even when it alters every configuration the same way.
//
// Inputs: examples/hard_s1_bounded.txt (one 39-fact block on hard
// schema S1), a small hard-sharded S1 workload with one non-optimal
// shard, a 72-fact hard-sharded S1 workload whose one cross-shard
// priority edge joins two shards into one block, and three seeded
// MakeEditScriptWorkload scripts (one of twenty shards, so more than 64
// facts stay live) replayed through a resident session.  Node budgets
// are chosen so some blocks degrade, and so the whole-instance repair
// walk is cut short.
// Every transcript must match its golden file under threads {1, 8} ×
// block-solve cache {off, on}.
//
// A missing or mismatching golden file makes the test write the actual
// transcript to <name>.actual in the working directory, for review.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "cache/block_cache.h"
#include "classify/categoricity.h"
#include "gen/edit_script.h"
#include "gen/hard_workloads.h"
#include "io/ops_format.h"
#include "io/text_format.h"
#include "repair/checker.h"
#include "repair/construct.h"
#include "repair/counting.h"
#include "repair/exhaustive.h"
#include "repair/improvement.h"
#include "repair/pareto.h"
#include "serve/session.h"

#ifndef PREFREP_SOURCE_DIR
#error "reply_golden_test needs PREFREP_SOURCE_DIR (tests/CMakeLists.txt)"
#endif

namespace prefrep {
namespace {

struct Config {
  size_t threads;
  bool cache;
};

constexpr Config kConfigs[] = {{1, false}, {1, true}, {8, false}, {8, true}};

constexpr size_t kCacheCapacity = 4096;

std::string ConfigName(const Config& config) {
  return "threads=" + std::to_string(config.threads) +
         " cache=" + (config.cache ? "on" : "off");
}

std::string SourcePath(const std::string& relative) {
  return std::string(PREFREP_SOURCE_DIR) + "/" + relative;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::string();
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void ExpectMatchesGolden(const std::string& name, const std::string& actual,
                         const Config& config) {
  const std::string golden =
      ReadFileOrEmpty(SourcePath("tests/golden/" + name + ".txt"));
  if (golden == actual) {
    return;
  }
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << "transcript " << name << " under " << ConfigName(config)
                << " differs from tests/golden/" << name
                << ".txt (actual written to " << name << ".actual)";
}

std::string BudgetName(const ResourceBudget& budget) {
  return budget.Unlimited() ? std::string("unlimited")
                            : "max_nodes=" + std::to_string(budget.max_nodes);
}

const char* VerdictName(const CheckResult& result) {
  switch (result.verdict) {
    case CheckResult::Verdict::kYes:
      return "yes";
    case CheckResult::Verdict::kNo:
      return "no";
    case CheckResult::Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

void AppendCheckResult(const Instance& instance, const CheckResult& result,
                       std::ostream* out) {
  *out << "  verdict: " << VerdictName(result) << "\n";
  if (result.witness.has_value()) {
    *out << "  witness: "
         << instance.SubinstanceToString(result.witness->improvement) << "\n"
         << "  explanation: " << result.witness->explanation << "\n";
  }
  if (!result.unknown_reason.empty()) {
    *out << "  reason: " << result.unknown_reason << "\n";
  }
}

const char* SemanticsName(RepairSemantics semantics) {
  switch (semantics) {
    case RepairSemantics::kGlobal:
      return "global";
    case RepairSemantics::kPareto:
      return "pareto";
    case RepairSemantics::kCompletion:
      return "completion";
  }
  return "?";
}

// Checks a categoricity verdict against an unbudgeted, uncached context:
// a categorical verdict names the one optimal repair AllOptimalRepairs
// lists, and an ambiguous verdict needs at least two optimal repairs.
// Those are counted, not listed: a twenty-shard script's optimal repairs
// are a product of per-block choices too large to materialize.
void ExpectAgreesWithEnumeration(const PreferredRepairProblem& problem,
                                 const CategoricityResult& result) {
  const ProblemContext fresh(*problem.instance, *problem.priority);
  if (result.verdict == Categoricity::kAmbiguous) {
    EXPECT_GE(
        CountOptimalRepairsBounded(fresh, RepairSemantics::kGlobal).lower_bound,
        2u);
  } else if (result.verdict == Categoricity::kCategorical) {
    const std::vector<DynamicBitset> all =
        AllOptimalRepairs(fresh, RepairSemantics::kGlobal);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all.front(), result.repair);
  }
}

// The library-level transcript of one problem under one budget: every
// public ProblemContext entry point, each on a fresh governor so each
// starts from a full budget.  The cache (when given) is shared across
// the whole transcript, so later calls replay what earlier ones stored.
void AppendLibraryTranscript(const PreferredRepairProblem& problem,
                             const ResourceBudget& budget,
                             const Config& config, BlockSolveCache* cache,
                             std::ostream* out) {
  const Instance& instance = *problem.instance;
  const bool conflict_bounded = problem.priority->IsConflictBounded();
  auto with_context = [&](const std::string& title, auto&& body) {
    *out << title << " [" << BudgetName(budget) << "]\n";
    ResourceGovernor governor(budget);
    ProblemContext ctx(instance, *problem.priority);
    ctx.set_parallelism(config.threads);
    ctx.set_block_cache(cache);
    if (!budget.Unlimited()) {
      ctx.set_governor(&governor);
    }
    body(ctx);
    *out << "  governor: nodes=" << governor.nodes_spent()
         << " refused=" << governor.blocks_refused()
         << " cause=" << governor.CauseString() << "\n";
  };
  for (PriorityMode mode :
       {PriorityMode::kConflictOnly, PriorityMode::kCrossConflict}) {
    if (mode == PriorityMode::kConflictOnly && !conflict_bounded) {
      continue;
    }
    const bool ccp = mode == PriorityMode::kCrossConflict;
    with_context(ccp ? "check global (ccp)" : "check global",
                 [&](const ProblemContext& ctx) {
                   CheckerOptions options;
                   options.mode = mode;
                   Result<CheckOutcome> outcome =
                       RepairChecker(ctx, options).CheckGloballyOptimal(
                           problem.j);
                   if (!outcome.ok()) {
                     *out << "  status: " << outcome.status().ToString()
                          << "\n";
                     return;
                   }
                   for (const std::string& step : outcome->route) {
                     *out << "  route: " << step << "\n";
                   }
                   AppendCheckResult(instance, outcome->result, out);
                   *out << "  degradation: "
                        << outcome->degradation.ToString() << "\n";
                 });
  }
  with_context("check pareto", [&](const ProblemContext& ctx) {
    CheckerOptions options;
    options.mode = conflict_bounded ? PriorityMode::kConflictOnly
                                    : PriorityMode::kCrossConflict;
    AppendCheckResult(
        instance, RepairChecker(ctx, options).CheckParetoOptimal(problem.j),
        out);
  });
  if (conflict_bounded) {
    with_context("check completion", [&](const ProblemContext& ctx) {
      AppendCheckResult(instance,
                        RepairChecker(ctx).CheckCompletionOptimal(problem.j),
                        out);
    });
  }
  for (RepairSemantics semantics :
       {RepairSemantics::kGlobal, RepairSemantics::kPareto,
        RepairSemantics::kCompletion}) {
    if (semantics == RepairSemantics::kCompletion && !conflict_bounded) {
      continue;
    }
    with_context(std::string("count ") + SemanticsName(semantics),
                 [&](const ProblemContext& ctx) {
                   const BoundedCount count =
                       CountOptimalRepairsBounded(ctx, semantics);
                   *out << "  lower_bound=" << count.lower_bound
                        << " exact=" << count.exact
                        << " unknown_blocks=" << count.unknown_blocks
                        << " saturated=" << count.saturated << "\n";
                 });
    with_context(std::string("enumerate ") + SemanticsName(semantics),
                 [&](const ProblemContext& ctx) {
                   const std::vector<DynamicBitset> all =
                       AllOptimalRepairs(ctx, semantics);
                   *out << "  size=" << all.size() << "\n";
                   for (size_t i = 0; i < all.size() && i < 8; ++i) {
                     *out << "  " << instance.SubinstanceToString(all[i])
                          << "\n";
                   }
                 });
  }
  if (!conflict_bounded) {
    // The governed whole-instance repair walk (the one `cqa repairs`
    // streams): how far the budget let it get, and where.
    with_context("enumerate repairs", [&](const ProblemContext& ctx) {
      size_t emitted = 0;
      DynamicBitset last;
      ForEachRepair(ctx.conflict_graph(), ctx.governor(),
                    [&](const DynamicBitset& repair) {
                      if (emitted < 4) {
                        *out << "  " << instance.SubinstanceToString(repair)
                             << "\n";
                      }
                      ++emitted;
                      last = repair;
                      return true;
                    });
      *out << "  emitted=" << emitted << "\n";
      if (emitted > 0) {
        *out << "  last: " << instance.SubinstanceToString(last) << "\n";
      }
    });
  }
  with_context("categoricity global", [&](const ProblemContext& ctx) {
    const CategoricityResult result =
        DecideCategoricity(ctx, RepairSemantics::kGlobal);
    *out << "  verdict: " << CategoricityName(result.verdict) << "\n";
    if (result.verdict == Categoricity::kCategorical) {
      *out << "  repair: " << instance.SubinstanceToString(result.repair)
           << "\n";
    }
    ExpectAgreesWithEnumeration(problem, result);
  });
  if (conflict_bounded) {
    with_context("construct", [&](const ProblemContext& ctx) {
      for (TieBreak tie_break :
           {TieBreak::kFirstFact, TieBreak::kMostDominating,
            TieBreak::kRandom}) {
        ConstructOptions options;
        options.tie_break = tie_break;
        options.seed = 7;
        Result<DynamicBitset> repair =
            TryConstructGloballyOptimalRepair(ctx, options);
        *out << "  "
             << (repair.ok() ? instance.SubinstanceToString(*repair)
                             : repair.status().ToString())
             << "\n";
      }
    });
  }
}

std::string LibraryTranscript(const PreferredRepairProblem& problem,
                              const std::vector<ResourceBudget>& budgets,
                              const Config& config) {
  std::unique_ptr<BlockSolveCache> cache =
      config.cache ? std::make_unique<BlockSolveCache>(kCacheCapacity)
                   : nullptr;
  std::ostringstream out;
  for (const ResourceBudget& budget : budgets) {
    AppendLibraryTranscript(problem, budget, config, cache.get(), &out);
  }
  return out.str();
}

ResourceBudget NodeBudget(uint64_t max_nodes) {
  ResourceBudget budget;
  budget.max_nodes = max_nodes;
  return budget;
}

std::string RunSessionLine(SessionContext& session, const std::string& line) {
  Result<SessionOp> op = ParseSessionOp(line);
  if (!op.ok()) {
    ADD_FAILURE() << line << ": " << op.status().ToString();
    return "parse error";
  }
  Result<std::string> reply = session.Execute(*op);
  return reply.ok() ? *reply : "error: " + reply.status().ToString();
}

// Replays `ops` through a fresh session and records every reply.  Edit
// replies are recorded too: they are part of the same reply surface.
std::string SessionTranscript(const PreferredRepairProblem& problem,
                              const std::vector<std::string>& ops,
                              const ResourceBudget& budget,
                              const Config& config) {
  SessionOptions options;
  options.threads = config.threads;
  options.cache_capacity = config.cache ? kCacheCapacity : 0;
  options.budget = budget;
  Result<std::unique_ptr<SessionContext>> session =
      SessionContext::Create(problem, options);
  if (!session.ok()) {
    ADD_FAILURE() << session.status().ToString();
    return std::string();
  }
  std::ostringstream out;
  for (const std::string& line : ops) {
    out << "> " << line << "\n" << RunSessionLine(**session, line) << "\n";
  }
  return out.str();
}

// Every session query, in one deterministic order.  `atom` is a query
// body over the input's relation; `boolean_body` is a Boolean query body
// that holds in some repairs but not all.
std::vector<std::string> SessionQueries(const std::string& atom,
                                        const std::string& boolean_body) {
  return {
      "check global",
      "check pareto",
      "check completion",
      "count global",
      "count pareto",
      "count completion",
      "construct",
      "cqa global Q(x) :- " + atom,
      "cqa pareto Q(x) :- " + atom,
      "cqa completion Q(x) :- " + atom,
      "cqa global Q() :- " + boolean_body,
      "cqa repairs Q(x) :- " + atom,
      "cqa repairs Q() :- " + boolean_body,
  };
}

PreferredRepairProblem MustParse(const std::string& text) {
  Result<PreferredRepairProblem> problem = ParseProblemText(text);
  EXPECT_TRUE(problem.ok()) << problem.status().ToString();
  return std::move(*problem);
}

// ---- Inputs ----------------------------------------------------------

TEST(ReplyGoldenTest, HardS1Bounded) {
  const PreferredRepairProblem problem =
      MustParse(ReadFileOrEmpty(SourcePath("examples/hard_s1_bounded.txt")));
  const std::vector<ResourceBudget> budgets = {NodeBudget(500),
                                               NodeBudget(100000)};
  std::vector<std::string> ops;
  for (uint64_t max_nodes : {500, 100000}) {
    ops.push_back("budget max-nodes " + std::to_string(max_nodes));
    for (const std::string& query :
         SessionQueries("R1(x, y, z)", "R1(x, y, \"spine\")")) {
      ops.push_back(query);
    }
  }
  for (const Config& config : kConfigs) {
    ExpectMatchesGolden("hard_s1_bounded_library",
                        LibraryTranscript(problem, budgets, config), config);
    ExpectMatchesGolden("hard_s1_bounded_session",
                        SessionTranscript(problem, ops, NodeBudget(500),
                                          config),
                        config);
  }
}

// Four copies of a two-clique S1 gadget (one 6-fact block each); the
// last shard's J swaps one member-1 fact for its dominated spine fact,
// so exact checking refutes J there with an exhaustive witness.
TEST(ReplyGoldenTest, HardSharded) {
  PreferredRepairProblem problem = MakeHardShardedWorkload(4, 2, 3);
  const Instance& instance = *problem.instance;
  problem.j.reset(instance.FindLabel("s3:q0:f1"));
  problem.j.set(instance.FindLabel("s3:q0:f0"));
  const std::vector<ResourceBudget> budgets = {
      ResourceBudget{}, NodeBudget(40), NodeBudget(150), NodeBudget(400)};
  std::vector<std::string> ops;
  for (uint64_t max_nodes : {40, 150, 400}) {
    ops.push_back("budget max-nodes " + std::to_string(max_nodes));
    for (const std::string& query :
         SessionQueries("R1(x, y, z)", "R1(x, y, \"spine\")")) {
      ops.push_back(query);
    }
  }
  for (const Config& config : kConfigs) {
    ExpectMatchesGolden("hard_sharded_library",
                        LibraryTranscript(problem, budgets, config), config);
    ExpectMatchesGolden("hard_sharded_session",
                        SessionTranscript(problem, ops, NodeBudget(150),
                                          config),
                        config);
  }
}

// Eight shards of nine facts (72 facts, so a repair walk over the whole
// instance spans two words) and one priority edge between shards 0 and
// 7, which joins their blocks into one 18-fact block: every question
// folds seven blocks, and only the `enumerate repairs` walk spans the
// whole instance until a node budget cuts it short.  J takes the spine
// fact of clique 0 in place of its member-1 fact in every shard but
// shard 6 — the walk's first choice in each shard — so the walk's first
// improving repair (shard 7 back to its member-1 facts) turns up a few
// hundred nodes into it.
PreferredRepairProblem CrossShardProblem() {
  PreferredRepairProblem problem = MakeHardShardedWorkload(8, 3, 3);
  const Instance& instance = *problem.instance;
  EXPECT_TRUE(problem.priority->AddByLabels("s0:q1:f1", "s7:q2:f2").ok());
  for (size_t s = 0; s < 8; ++s) {
    if (s == 6) {
      continue;
    }
    problem.j.reset(instance.FindLabel(StrFormat("s%zu:q0:f1", s)));
    problem.j.set(instance.FindLabel(StrFormat("s%zu:q0:f0", s)));
  }
  return problem;
}

std::vector<ResourceBudget> CrossShardBudgets() {
  return {NodeBudget(150), NodeBudget(600), NodeBudget(20000)};
}

TEST(ReplyGoldenTest, CrossShardJoinedBlock) {
  const PreferredRepairProblem problem = CrossShardProblem();
  for (const Config& config : kConfigs) {
    ExpectMatchesGolden(
        "cross_shard_library",
        LibraryTranscript(problem, CrossShardBudgets(), config), config);
  }
}

// `problem` restricted to the facts whose labels start with one of
// `prefixes`: its text form keeps the schema, those facts, the priority
// edges between them and J's share of them.
PreferredRepairProblem RestrictByLabel(
    const PreferredRepairProblem& problem,
    const std::vector<std::string>& prefixes) {
  const auto kept = [&](const std::string& label) {
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string& prefix) {
                         return label.compare(0, prefix.size(), prefix) == 0;
                       });
  };
  std::istringstream in(
      ProblemToText(*problem.instance, problem.priority.get(), &problem.j));
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::vector<std::string> word;
    for (std::string w; words >> w;) {
      word.push_back(w);
    }
    if (word.empty()) {
      continue;
    }
    if (word[0] == "fact" && !kept(word[1])) {
      continue;
    }
    if (word[0] == "prefer" && (!kept(word[1]) || !kept(word[3]))) {
      continue;
    }
    if (word[0] == "j") {
      line = "j";
      for (size_t i = 1; i < word.size(); ++i) {
        if (kept(word[i])) {
          line += " " + word[i];
        }
      }
    }
    text += line + "\n";
  }
  return MustParse(text);
}

// Each set as its sorted label list, and the lists sorted, so sets of
// facts from different instances compare.
std::vector<std::vector<std::string>> LabelSets(
    const Instance& instance, const std::vector<DynamicBitset>& sets) {
  std::vector<std::vector<std::string>> out;
  for (const DynamicBitset& set : sets) {
    std::vector<std::string> labels;
    set.ForEach([&](size_t f) {
      labels.push_back(instance.label(static_cast<FactId>(f)));
    });
    std::sort(labels.begin(), labels.end());
    out.push_back(std::move(labels));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Each answer of the cross-shard transcript against a whole-instance
// reference.  The verdicts are checked against the whole-instance
// exhaustive checks and the whole-instance Pareto check, on all 72
// facts: J is improvable, so the exhaustive scans stop early.  The
// optimal repairs of all 72 facts number 20^8 repairs to filter, so
// their reference is OptimalRepairsWithin over AllFactIds of each
// independent shard group — shards 0 and 7, which the edge couples,
// and every other shard alone — and the whole-instance optimal set is
// the product of the groups' sets: no conflict and no priority edge
// relates two groups, which the test checks first.
TEST(ReplyGoldenTest, CrossShardAnswersMatchWholeInstanceReferences) {
  const PreferredRepairProblem problem = CrossShardProblem();
  const Instance& instance = *problem.instance;
  const PriorityRelation& pr = *problem.priority;
  const ConflictGraph cg(instance);
  const std::vector<std::vector<std::string>> groups = {
      {"s0:", "s7:"}, {"s1:"}, {"s2:"}, {"s3:"}, {"s4:"}, {"s5:"}, {"s6:"}};
  const auto group_of = [&](FactId f) {
    const std::string label = instance.label(f);
    for (size_t g = 0; g < groups.size(); ++g) {
      for (const std::string& prefix : groups[g]) {
        if (label.compare(0, prefix.size(), prefix) == 0) {
          return g;
        }
      }
    }
    return groups.size();
  };
  for (FactId f = 0; f < cg.num_facts(); ++f) {
    ASSERT_LT(group_of(f), groups.size());
    for (FactId g : cg.neighbors(f)) {
      ASSERT_EQ(group_of(f), group_of(g));
    }
  }
  for (const auto& [higher, lower] : pr.edges()) {
    ASSERT_EQ(group_of(higher), group_of(lower));
  }
  // The whole-instance optimal repairs per semantics, as label sets.
  std::vector<std::vector<std::vector<std::string>>> reference;
  for (RepairSemantics semantics :
       {RepairSemantics::kGlobal, RepairSemantics::kPareto}) {
    std::vector<std::vector<std::string>> product{{}};
    for (const std::vector<std::string>& prefixes : groups) {
      const PreferredRepairProblem part = RestrictByLabel(problem, prefixes);
      const ConflictGraph part_cg(*part.instance);
      const std::vector<std::vector<std::string>> optimal = LabelSets(
          *part.instance,
          OptimalRepairsWithin(part_cg, *part.priority,
                               AllFactIds(part_cg), semantics));
      std::vector<std::vector<std::string>> next;
      for (const std::vector<std::string>& prefix : product) {
        for (const std::vector<std::string>& choice : optimal) {
          std::vector<std::string> merged = prefix;
          merged.insert(merged.end(), choice.begin(), choice.end());
          std::sort(merged.begin(), merged.end());
          next.push_back(std::move(merged));
        }
      }
      product = std::move(next);
    }
    std::sort(product.begin(), product.end());
    reference.push_back(std::move(product));
  }
  const CheckResult global_reference =
      ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  ASSERT_TRUE(global_reference.known());
  const CheckResult pareto_reference = CheckParetoOptimal(cg, pr, problem.j);
  ResourceBudget walk_budget;
  walk_budget.max_nodes = 1000000;
  ResourceGovernor walk_governor(walk_budget);
  const CheckResult pareto_exhaustive =
      ExhaustiveCheckParetoOptimal(cg, pr, problem.j, walk_governor);
  ASSERT_TRUE(pareto_exhaustive.known());
  ASSERT_EQ(pareto_exhaustive.optimal, pareto_reference.optimal);

  std::vector<ResourceBudget> budgets = CrossShardBudgets();
  budgets.push_back(ResourceBudget{});
  for (const Config& config : kConfigs) {
    for (const ResourceBudget& budget : budgets) {
      SCOPED_TRACE(ConfigName(config) + " " + BudgetName(budget));
      BlockSolveCache cache(kCacheCapacity);
      auto run = [&](auto&& body) {
        ResourceGovernor governor(budget);
        ProblemContext ctx(instance, pr);
        ctx.set_parallelism(config.threads);
        ctx.set_block_cache(config.cache ? &cache : nullptr);
        if (!budget.Unlimited()) {
          ctx.set_governor(&governor);
        }
        body(ctx);
      };
      run([&](const ProblemContext& ctx) {
        ASSERT_EQ(ctx.blocks().num_blocks(), 7u);
        CheckerOptions options;
        options.mode = PriorityMode::kCrossConflict;
        const RepairChecker checker(ctx, options);
        Result<CheckOutcome> outcome = checker.CheckGloballyOptimal(problem.j);
        ASSERT_TRUE(outcome.ok());
        if (outcome->result.known()) {
          EXPECT_EQ(outcome->result.optimal, global_reference.optimal);
        }
        if (outcome->result.witness.has_value()) {
          EXPECT_TRUE(IsGlobalImprovement(
              cg, pr, problem.j, outcome->result.witness->improvement));
        }
        const CheckResult pareto = checker.CheckParetoOptimal(problem.j);
        ASSERT_TRUE(pareto.known());
        EXPECT_EQ(pareto.optimal, pareto_reference.optimal);
      });
      for (size_t k = 0; k < 2; ++k) {
        const RepairSemantics semantics =
            k == 0 ? RepairSemantics::kGlobal : RepairSemantics::kPareto;
        const std::vector<std::vector<std::string>>& expected = reference[k];
        run([&](const ProblemContext& ctx) {
          const BoundedCount count =
              CountOptimalRepairsBounded(ctx, semantics);
          EXPECT_LE(count.lower_bound, expected.size());
          if (count.exact) {
            EXPECT_EQ(count.lower_bound, expected.size());
          }
          EXPECT_TRUE(count.exact || !budget.Unlimited());
        });
        run([&](const ProblemContext& ctx) {
          const std::vector<DynamicBitset> all =
              AllOptimalRepairs(ctx, semantics);
          if (!all.empty()) {
            EXPECT_EQ(LabelSets(instance, all), expected);
          }
          EXPECT_TRUE(!all.empty() || !budget.Unlimited());
        });
      }
      run([&](const ProblemContext& ctx) {
        const CategoricityResult result =
            DecideCategoricity(ctx, RepairSemantics::kGlobal);
        const std::vector<std::vector<std::string>>& expected = reference[0];
        switch (result.verdict) {
          case Categoricity::kCategorical:
            ASSERT_EQ(expected.size(), 1u);
            EXPECT_EQ(LabelSets(instance, {result.repair}), expected);
            break;
          case Categoricity::kAmbiguous:
            EXPECT_GE(expected.size(), 2u);
            break;
          case Categoricity::kUnknown:
            EXPECT_FALSE(budget.Unlimited());
            break;
        }
      });
    }
  }
}

EditScriptWorkload GoldenEditScript(uint64_t seed, size_t shards) {
  EditScriptOptions options;
  options.shards = shards;
  options.facts_per_shard = 4;
  options.num_ops = 160;
  options.query_fraction = 0.3;
  options.seed = seed;
  return MakeEditScriptWorkload(options);
}

// The live state a script leaves behind, as a parsed problem: edits do
// not solve anything, so one serial replay serves every configuration.
// The script's queries run under a small budget, which keeps the
// repair walks of wide scripts finite and does not touch the edits.
PreferredRepairProblem FinalState(const EditScriptWorkload& workload) {
  Result<std::unique_ptr<SessionContext>> session = SessionContext::Create(
      workload.problem, SessionOptions{1, 0, NodeBudget(24)});
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  for (const std::string& line : workload.ops) {
    RunSessionLine(**session, line);
  }
  return MustParse((*session)->SerializeLive());
}

// The script runs under a budget tight enough that counts degrade on
// some blocks; the trailing query rounds add a generous one.
void RunEditScript(uint64_t seed, size_t shards, const std::string& name) {
  const EditScriptWorkload workload = GoldenEditScript(seed, shards);
  const PreferredRepairProblem final_state = FinalState(workload);
  std::vector<std::string> ops = workload.ops;
  for (uint64_t max_nodes : {24, 5000}) {
    ops.push_back("budget max-nodes " + std::to_string(max_nodes));
    for (const std::string& query :
         SessionQueries("R(x, y, z)", "R(x, \"v0_0\", z)")) {
      ops.push_back(query);
    }
  }
  for (const Config& config : kConfigs) {
    ExpectMatchesGolden(name + "_library",
                        LibraryTranscript(final_state,
                                          {NodeBudget(24), NodeBudget(5000)},
                                          config),
                        config);
    ExpectMatchesGolden(name + "_session",
                        SessionTranscript(workload.problem, ops,
                                          NodeBudget(24), config),
                        config);
  }
}

TEST(ReplyGoldenTest, EditScriptSeed3) {
  RunEditScript(3, 6, "edit_script_seed3");
}

TEST(ReplyGoldenTest, EditScriptSeed11) {
  RunEditScript(11, 6, "edit_script_seed11");
}

// Twenty shards keep more than 64 facts live, so `cqa repairs` walks a
// universe wider than one word.
TEST(ReplyGoldenTest, EditScriptSeed5TwentyShards) {
  RunEditScript(5, 20, "edit_script_seed5_shards20");
}

}  // namespace
}  // namespace prefrep
