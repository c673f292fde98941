// prefrepctl — command-line front end for the prefrep library.
//
// Subcommands (all read a problem in the text format of
// src/io/text_format.h):
//
//   prefrepctl classify <file>            both dichotomy verdicts
//   prefrepctl check <file> [--ccp] [--semantics global|pareto|completion]
//                                         is the file's J an optimal repair?
//   prefrepctl enumerate <file> [--optimal-only] [--limit N]
//                                         list repairs / optimal repairs
//   prefrepctl answers <file> "<query>" [--semantics ...]
//                                         consistent answers of a CQ
//   prefrepctl session <file> <script.ops>
//                                         run a session-ops batch script
//                                         (insert/delete/prefer edits +
//                                         queries; see docs/serving.md)
//   prefrepctl dump <file>                parse and pretty-print back
//
// Every solving subcommand routes through one resident SessionContext
// (src/serve/session.h): the conflict graph, classifications and block
// decomposition are built once per process and shared — the same
// artifacts a long-lived prefrepd server keeps warm across edits.
//
// Budget options (check / enumerate / answers / session): --deadline-ms
// N, --max-nodes N, --max-block N install a ResourceGovernor;
// exponential work past the budget degrades to "unknown" with a
// per-block degradation summary instead of running forever
// (docs/robustness.md).
//
// --threads N sets the per-block solver parallelism (0 = hardware
// concurrency, 1 = exact serial execution); results are identical at
// every value (docs/parallelism.md).
//
// --cache[=entries] installs a block-solve cache (docs/caching.md):
// isomorphic conflict blocks are solved once and replayed, with a
// traffic summary printed after the run.  Results are identical with
// and without it.
//
// Exit codes: 0 = success ("yes" answers), 1 = "no" answer, 2 = usage,
// 3 = input error, 4 = unknown (resource budget exhausted).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "cache/block_cache.h"
#include "classify/ccp_dichotomy.h"
#include "classify/dichotomy.h"
#include "io/dot_export.h"
#include "io/ops_format.h"
#include "io/text_format.h"
#include "persist/durable_session.h"
#include "query/consistent_answers.h"
#include "repair/block_solver.h"
#include "repair/checker.h"
#include "conflicts/stats.h"
#include "repair/explain.h"
#include "serve/session.h"

using namespace prefrep;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: prefrepctl <command> <file> [options]\n"
      "  classify <file>\n"
      "  check <file> [--ccp] [--semantics global|pareto|completion]\n"
      "  enumerate <file> [--optimal-only] [--limit N]\n"
      "  answers <file> \"Q(x) :- R(x, y)\" [--semantics "
      "all|global|pareto|completion]\n"
      "  session <file> <script.ops>  run session ops (edits + queries)\n"
      "  stats <file>          conflict/block structure + fallback cost\n"
      "  dot <file>            Graphviz of conflicts + priorities + J\n"
      "  dump <file>\n"
      "budget options (check/enumerate/answers/session):\n"
      "  --deadline-ms N  --max-nodes N  --max-block N\n"
      "  degrade to \"unknown\" (exit 4) instead of running forever\n"
      "  --threads N      per-block solver threads (0 = hardware, 1 = "
      "serial)\n"
      "  --cache[=N]      memoize per-block solves (N = capacity in "
      "entries)\n"
      "durability options (session; see docs/durability.md):\n"
      "  --wal <path>     recover from and log edits to a write-ahead "
      "log\n"
      "  --snapshot <path>  snapshot location (default <wal>.snapshot)\n"
      "  --snapshot-every N  checkpoint after every N logged edits\n"
      "  --fsync=MODE     always | batch | off (default always)\n"
      "  --crossover      report resident-vs-rebuild query timing after "
      "the script\n");
  return 2;
}

Result<PreferredRepairProblem> Load(const char* path) {
  return ParseProblemFile(path);
}

int CmdClassify(const PreferredRepairProblem& p) {
  const Schema& schema = p.instance->schema();
  SchemaClassification ordinary = ClassifySchema(schema);
  for (RelId r = 0; r < schema.num_relations(); ++r) {
    std::printf("%-12s %-10s %s\n", schema.relation_name(r).c_str(),
                TractableKindName(ordinary.relations[r].kind),
                ordinary.relations[r].explanation.c_str());
  }
  CcpSchemaClassification ccp = ClassifyCcpSchema(schema);
  std::printf("ordinary priorities:       %s\n",
              ordinary.tractable ? "PTIME" : "coNP-complete");
  std::printf("cross-conflict priorities: %s (%s)\n",
              ccp.tractable() ? "PTIME" : "coNP-complete",
              ccp.explanation.c_str());
  return 0;
}

void PrintCacheStats(const BlockSolveCache* cache) {
  if (cache == nullptr) {
    return;
  }
  BlockCacheStats s = cache->stats();
  std::printf("cache: %llu hit(s), %llu miss(es), %llu store(s), "
              "%llu eviction(s), %zu entries, ~%zu bytes\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.stores),
              static_cast<unsigned long long>(s.evictions), s.entries,
              s.bytes);
}

void PrintDegradation(const ResourceGovernor& governor,
                      const DegradationReport& degradation) {
  if (!governor.degraded() && !degradation.Degraded()) {
    return;
  }
  std::printf("budget: %s\n", governor.CauseString().c_str());
  if (degradation.blocks_total > 0) {
    std::printf("%s\n", degradation.ToString().c_str());
  }
}

int CmdCheck(const PreferredRepairProblem& p, SessionContext& session,
             bool ccp, const std::string& semantics,
             const ResourceBudget& budget) {
  CheckerOptions opts;
  opts.mode = ccp ? PriorityMode::kCrossConflict : PriorityMode::kConflictOnly;
  Status valid = p.priority->Validate(opts.mode);
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid priority: %s\n",
                 valid.ToString().c_str());
    return 3;
  }
  ResourceGovernor governor(budget);
  ProblemContext& ctx = session.context();
  if (!budget.Unlimited()) {
    ctx.set_governor(&governor);
  }
  RepairChecker checker(ctx, opts);
  std::printf("J = %s\n", p.instance->SubinstanceToString(p.j).c_str());
  bool optimal = false;
  if (semantics == "pareto") {
    optimal = checker.CheckParetoOptimal(p.j).optimal;
    std::printf("Pareto-optimal repair: %s\n", optimal ? "yes" : "no");
  } else if (semantics == "completion") {
    optimal = checker.CheckCompletionOptimal(p.j).optimal;
    std::printf("completion-optimal repair: %s\n", optimal ? "yes" : "no");
  } else {
    auto outcome = checker.CheckGloballyOptimal(p.j);
    if (!outcome.ok()) {
      ctx.set_governor(nullptr);
      std::fprintf(stderr, "error: %s\n",
                   outcome.status().ToString().c_str());
      return 3;
    }
    for (const std::string& step : outcome->route) {
      std::printf("route: %s\n", step.c_str());
    }
    if (!outcome->result.known()) {
      std::printf("globally-optimal repair: unknown (%s)\n",
                  outcome->result.unknown_reason.c_str());
      PrintDegradation(governor, outcome->degradation);
      PrintCacheStats(session.cache());
      ctx.set_governor(nullptr);
      return 4;
    }
    optimal = outcome->result.optimal;
    std::printf("globally-optimal repair: %s\n", optimal ? "yes" : "no");
    PrintDegradation(governor, outcome->degradation);
    PrintCacheStats(session.cache());
    std::printf("%s", ExplainOutcome(ctx.conflict_graph(), session.priority(),
                                     p.j, outcome->result)
                          .c_str());
  }
  ctx.set_governor(nullptr);
  return optimal ? 0 : 1;
}

int CmdEnumerate(const PreferredRepairProblem& p, SessionContext& session,
                 bool optimal_only, size_t limit,
                 const ResourceBudget& budget) {
  ProblemContext& ctx = session.context();
  const ConflictGraph& cg = ctx.conflict_graph();
  ResourceGovernor governor(budget);
  if (optimal_only) {
    if (!budget.Unlimited()) {
      ctx.set_governor(&governor);
    }
    std::vector<DynamicBitset> optimal =
        AllOptimalRepairs(ctx, RepairSemantics::kGlobal);
    ctx.set_governor(nullptr);
    if (optimal.empty()) {
      // Every instance has an optimal repair; empty means abandoned,
      // by the budget or by the exhaustive block cap, which refuses an
      // oversized block even when no budget is set.
      std::printf("enumeration abandoned: %s\n",
                  CqaUnknownStatus(governor).message().c_str());
      PrintCacheStats(session.cache());
      return 4;
    }
    std::printf("%zu globally-optimal repair(s)\n", optimal.size());
    size_t shown = 0;
    for (const DynamicBitset& r : optimal) {
      if (shown++ >= limit) {
        std::printf("... (%zu more)\n", optimal.size() - limit);
        break;
      }
      std::printf("  %s\n", p.instance->SubinstanceToString(r).c_str());
    }
    if (optimal.size() == 1) {
      std::printf("the cleaning is unambiguous (unique optimal repair)\n");
    }
    PrintCacheStats(session.cache());
    return 0;
  }
  size_t shown = 0;
  uint64_t total = 0;
  ForEachRepair(cg, governor, [&](const DynamicBitset& r) {
    ++total;
    if (shown < limit) {
      std::printf("  %s\n", p.instance->SubinstanceToString(r).c_str());
      ++shown;
    }
    return true;
  });
  if (governor.exhausted()) {
    std::printf("%llu repair(s) seen, then %s\n",
                static_cast<unsigned long long>(total),
                governor.CauseString().c_str());
    return 4;
  }
  std::printf("%llu repair(s) in total\n",
              static_cast<unsigned long long>(total));
  return 0;
}

int CmdAnswers(const PreferredRepairProblem& p, SessionContext& session,
               const char* query_text, const std::string& semantics,
               const ResourceBudget& budget) {
  Result<ConjunctiveQuery> query = ConjunctiveQuery::Parse(query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "bad query: %s\n",
                 query.status().ToString().c_str());
    return 3;
  }
  AnswerSemantics sem = AnswerSemantics::kGlobal;
  if (semantics == "all") {
    sem = AnswerSemantics::kAllRepairs;
  } else if (semantics == "pareto") {
    sem = AnswerSemantics::kPareto;
  } else if (semantics == "completion") {
    sem = AnswerSemantics::kCompletion;
  }
  (void)p;
  ResourceGovernor governor(budget);
  ProblemContext& ctx = session.context();
  if (!budget.Unlimited()) {
    ctx.set_governor(&governor);
  }
  // Report the shape of the repair set the answer ranged over:
  // "categorical" (the priority left one optimal repair, so the
  // intersection was one query evaluation) or "enumeration" (any other
  // answer, and every unknown one).
  CqaPath path = CqaPath::kEnumeration;
  CqaOptions cqa_options;
  cqa_options.path = &path;
  if (query->IsBoolean()) {
    Trilean certain = CertainlyTrueBounded(ctx, *query, sem, cqa_options);
    ctx.set_governor(nullptr);
    std::printf("certainly true: %s\n",
                certain == Trilean::kTrue
                    ? "yes"
                    : certain == Trilean::kFalse ? "no" : "unknown");
    std::printf("path: %s\n", CqaPathName(path));
    PrintCacheStats(session.cache());
    if (certain == Trilean::kUnknown) {
      std::printf("budget: %s\n",
                  CqaUnknownStatus(governor).message().c_str());
      return 4;
    }
    return certain == Trilean::kTrue ? 0 : 1;
  }
  auto bounded = ConsistentAnswersBounded(ctx, *query, sem, cqa_options);
  ctx.set_governor(nullptr);
  if (!bounded.ok()) {
    std::printf("answers unknown: %s\n", bounded.status().ToString().c_str());
    PrintCacheStats(session.cache());
    return 4;
  }
  const auto& answers = *bounded;
  std::printf("%zu consistent answer(s):\n", answers.size());
  for (const auto& tuple : answers) {
    std::printf("  (");
    for (size_t i = 0; i < tuple.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", tuple[i].c_str());
    }
    std::printf(")\n");
  }
  std::printf("path: %s\n", CqaPathName(path));
  PrintCacheStats(session.cache());
  return 0;
}

// Re-runs the script's queries on a from-scratch rebuild of the
// session's serialized live state and reports resident-vs-rebuild wall
// time.  This is the visibility half of the cache-off degradation fix:
// a resident session with the cache disabled can end up SLOWER than
// rebuilding per batch (BENCH_serve.json, blocks=256 cache=off at
// 0.84x), and before this probe nothing in the serving surface said so.
void PrintCrossover(SessionContext& session, SessionOptions options,
                    const std::vector<SessionOp>& ops) {
  const uint64_t resident_micros = session.stats().query_micros;
  if (session.stats().queries == 0) {
    std::printf("crossover: no queries in script, nothing to compare\n");
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  Result<PreferredRepairProblem> rebuilt_problem =
      ParseProblemText(session.SerializeLive());
  if (!rebuilt_problem.ok()) {
    std::printf("crossover: rebuild probe failed: %s\n",
                rebuilt_problem.status().ToString().c_str());
    return;
  }
  Result<std::unique_ptr<SessionContext>> rebuilt =
      SessionContext::Create(*rebuilt_problem, options);
  if (!rebuilt.ok()) {
    std::printf("crossover: rebuild probe failed: %s\n",
                rebuilt.status().ToString().c_str());
    return;
  }
  for (const SessionOp& op : ops) {
    if (op.kind == SessionOp::Kind::kCheck ||
        op.kind == SessionOp::Kind::kCount ||
        op.kind == SessionOp::Kind::kConstruct ||
        op.kind == SessionOp::Kind::kCqa) {
      // Replies were proven byte-identical by the serve battery; here
      // only the wall clock matters.
      Result<std::string> reply = (*rebuilt)->Execute(op);
      if (!reply.ok()) {
        std::printf("crossover: rebuild probe failed: %s\n",
                    reply.status().ToString().c_str());
        return;
      }
    }
  }
  const uint64_t rebuild_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  const double speedup =
      resident_micros == 0
          ? 0.0
          : static_cast<double>(rebuild_micros) /
                static_cast<double>(resident_micros);
  std::printf("crossover: resident-query-micros=%llu "
              "rebuild-replay-micros=%llu speedup=%.2fx\n",
              static_cast<unsigned long long>(resident_micros),
              static_cast<unsigned long long>(rebuild_micros),
              speedup);
  if (speedup != 0.0 && speedup < 1.0) {
    std::printf("warning: resident serving is SLOWER than rebuilding per "
                "batch (cache-capacity=%zu); consider --cache or larger "
                "capacity\n",
                options.cache_capacity);
  }
}

int CmdSession(SessionContext& session, DurableSession* durable,
               const SessionOptions& options, const char* script_path,
               bool crossover) {
  std::ifstream in(script_path);
  if (!in.is_open()) {
    std::fprintf(stderr, "error: cannot open script '%s'\n", script_path);
    return 3;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<std::vector<SessionOp>> ops = ParseSessionScript(buffer.str());
  if (!ops.ok()) {
    std::fprintf(stderr, "error: %s\n", ops.status().ToString().c_str());
    return 3;
  }
  for (const SessionOp& op : *ops) {
    Result<std::string> reply = durable != nullptr ? durable->Execute(op)
                                                   : session.Execute(op);
    if (reply.ok()) {
      std::printf("%s\n\n", reply->c_str());
    } else {
      std::printf("error: %s\n\n", reply.status().message().c_str());
    }
  }
  PrintCacheStats(session.cache());
  if (crossover) {
    PrintCrossover(session, options, *ops);
  }
  if (durable != nullptr) {
    const Status closed = durable->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "error: shutdown checkpoint failed: %s\n",
                   closed.ToString().c_str());
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];
  Result<PreferredRepairProblem> problem = Load(argv[2]);
  if (!problem.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 problem.status().ToString().c_str());
    return 3;
  }
  // Shared option parsing.
  bool ccp = false;
  bool optimal_only = false;
  size_t limit = 20;
  std::string semantics = "global";
  ResourceBudget budget;
  size_t threads = 0;  // 0 = hardware concurrency (the context default)
  size_t cache_capacity = 0;
  DurabilityOptions durability;
  bool crossover = false;
  const char* query_text = nullptr;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ccp") == 0) {
      ccp = true;
    } else if (std::strcmp(argv[i], "--wal") == 0 && i + 1 < argc) {
      durability.wal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      durability.snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0 &&
               i + 1 < argc) {
      if (!ParseFlag("--snapshot-every", argv[++i],
                     &durability.snapshot_every)) {
        return 2;
      }
    } else if (std::strncmp(argv[i], "--fsync=", 8) == 0) {
      Result<FsyncMode> mode = ParseFsyncMode(argv[i] + 8);
      if (!mode.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     mode.status().ToString().c_str());
        return 2;
      }
      durability.fsync = *mode;
    } else if (std::strcmp(argv[i], "--crossover") == 0) {
      crossover = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache_capacity = BlockSolveCache::kDefaultCapacity;
    } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
      if (!ParseFlag("--cache", argv[i] + 8, &cache_capacity)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--optimal-only") == 0) {
      optimal_only = true;
    } else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      if (!ParseFlag("--limit", argv[++i], &limit)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--semantics") == 0 && i + 1 < argc) {
      semantics = argv[++i];
    } else if ((std::strcmp(argv[i], "--deadline-ms") == 0 ||
                std::strcmp(argv[i], "--max-nodes") == 0 ||
                std::strcmp(argv[i], "--max-block") == 0) &&
               i + 1 < argc) {
      const char* flag = argv[i];
      if (!ParseBudgetFlag(flag, argv[++i], &budget)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParseFlag("--threads", argv[++i], &threads)) {
        return 2;
      }
    } else if (query_text == nullptr) {
      query_text = argv[i];
    } else {
      return Usage();
    }
  }

  // The stateless commands work straight off the parsed problem (and
  // must keep working on priorities no session would accept).
  if (command == "classify") {
    return CmdClassify(*problem);
  }
  if (command == "dump") {
    std::printf("%s", ProblemToText(*problem).c_str());
    return 0;
  }

  // Everything else runs through one resident session: conflict graph,
  // classifications and blocks built once, shared by every call.
  SessionOptions session_options;
  session_options.threads = threads;
  session_options.cache_capacity = cache_capacity;
  if (command == "session") {
    session_options.budget = budget;
  }

  // `session --wal` recovers through the durable wrapper; every other
  // command (and walless session runs) stays on the plain path.
  if (command == "session" && !durability.wal_path.empty()) {
    if (query_text == nullptr) {
      return Usage();
    }
    Result<std::unique_ptr<DurableSession>> durable =
        DurableSession::Open(*problem, session_options, durability);
    if (!durable.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   durable.status().ToString().c_str());
      return durable.status().code() == StatusCode::kDataLoss ? 5 : 3;
    }
    std::printf("recovery: %s\n\n",
                (*durable)->recovery().ToString().c_str());
    return CmdSession((*durable)->session(), durable->get(),
                      session_options, query_text, crossover);
  }

  Result<std::unique_ptr<SessionContext>> session =
      SessionContext::Create(*problem, session_options);
  if (!session.ok()) {
    std::fprintf(stderr, "invalid priority: %s\n",
                 session.status().ToString().c_str());
    return 3;
  }

  if (command == "check") {
    return CmdCheck(*problem, **session, ccp, semantics, budget);
  }
  if (command == "enumerate") {
    return CmdEnumerate(*problem, **session, optimal_only, limit, budget);
  }
  if (command == "answers") {
    if (query_text == nullptr) {
      return Usage();
    }
    return CmdAnswers(*problem, **session, query_text, semantics, budget);
  }
  if (command == "session") {
    if (query_text == nullptr) {
      return Usage();
    }
    return CmdSession(**session, /*durable=*/nullptr, session_options,
                      query_text, crossover);
  }
  if (command == "stats") {
    const ConflictGraph& cg = (*session)->context().conflict_graph();
    ConflictStats stats = ComputeConflictStats(cg);
    std::printf("%s\n", stats.ToString().c_str());
    // Predicted cost of the per-block exponential fallback (Σ 2^size
    // block-repair enumerations) — what a check on a hard schema pays
    // after the block decomposition, vs 2^contested before it.
    double fallback = 0.0;
    for (const auto& [size, count] : stats.block_size_histogram) {
      fallback += static_cast<double>(count) *
                  std::pow(2.0, static_cast<double>(size));
    }
    std::printf("exponential fallback cost: ~%.0f block-repairs "
                "(whole-instance: 2^%zu)\n",
                fallback, stats.conflicting_facts);
    return 0;
  }
  if (command == "dot") {
    const ConflictGraph& cg = (*session)->context().conflict_graph();
    std::printf("%s",
                ConflictGraphToDot(cg, (*session)->priority(), problem->j)
                    .c_str());
    return 0;
  }
  return Usage();
}
