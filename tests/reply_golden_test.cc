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
// priority edge sends every question to the whole instance, and three
// seeded MakeEditScriptWorkload scripts (one of twenty shards, so more
// than 64 facts stay live) replayed through a resident session.  Node
// budgets are chosen so some blocks degrade, and so the whole-instance
// walks are cut short.
// Every transcript must match its golden file under threads {1, 8} ×
// block-solve cache {off, on}.
//
// A missing or mismatching golden file makes the test write the actual
// transcript to <name>.actual in the working directory, for review.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "cache/block_cache.h"
#include "classify/categoricity.h"
#include "conflicts/blocks.h"
#include "gen/edit_script.h"
#include "gen/hard_workloads.h"
#include "io/ops_format.h"
#include "io/text_format.h"
#include "repair/checker.h"
#include "repair/construct.h"
#include "repair/counting.h"
#include "repair/exhaustive.h"
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
  // A cross-block priority sends every question to the whole instance.
  const bool block_local = PriorityIsBlockLocal(
      BlockDecomposition(ConflictGraph(instance)), *problem.priority);
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
    if (!block_local) {
      continue;  // governor_test covers the whole-instance enumeration
    }
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
  if (!block_local) {
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
    return;
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
// 7, which makes the priority cross blocks: checking, counting and
// repair enumeration all walk the whole instance until a node budget
// cuts them short.  J takes the spine fact of clique 0 in place of its
// member-1 fact in every shard but shard 6 — the walk's first choice
// in each shard — so the first improving repair (shard 7 back to its
// member-1 facts) turns up a few hundred nodes into the walk.  Library
// only: a session with a block cache cannot hold a cross-block
// priority.
TEST(ReplyGoldenTest, CrossShardWholeInstance) {
  PreferredRepairProblem problem = MakeHardShardedWorkload(8, 3, 3);
  const Instance& instance = *problem.instance;
  ASSERT_TRUE(problem.priority->AddByLabels("s0:q1:f1", "s7:q2:f2").ok());
  for (size_t s = 0; s < 8; ++s) {
    if (s == 6) {
      continue;
    }
    problem.j.reset(instance.FindLabel(StrFormat("s%zu:q0:f1", s)));
    problem.j.set(instance.FindLabel(StrFormat("s%zu:q0:f0", s)));
  }
  const std::vector<ResourceBudget> budgets = {
      NodeBudget(150), NodeBudget(600), NodeBudget(20000)};
  for (const Config& config : kConfigs) {
    ExpectMatchesGolden("cross_shard_library",
                        LibraryTranscript(problem, budgets, config), config);
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
