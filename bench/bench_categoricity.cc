// B17 — the total-priority rule (OptimalSetOf, repair/block_solver.h)
// versus the walk it saves.  The claim: on a categorical instance whose
// priority orders every conflicting pair, CQA costs one greedy pass per
// block plus one query evaluation, while walking the blocks still
// enumerates every block's full block-repair space.  Over the
// clique-with-spine gadget (gen/categorical_workload.h):
//
//   BM_CqaCategoricalFast — the library route on a total-priority
//                           workload: each block's optimal set is its
//                           greedy block-repair and CQA evaluates the
//                           query on the one repair.
//   BM_CqaCategoricalEnum — the same answer from the walk: each block
//                           through ExhaustiveBlockSolver()
//                           .OptimalBlockRepairs, which walks the
//                           (s-1)^(c-1)·(s-1+c)-repair space, then the
//                           query on the product.
//   BM_DecideCategoricity — the uniqueness decision alone.
//
// Threads are pinned to 1 so the ratio isolates the route, not the
// dispatch.  tools/bench_to_json.py turns the Fast/Enum pair into the
// BENCH_categoricity.json speedup figures (EXPERIMENTS.md, B17).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "classify/categoricity.h"
#include "gen/categorical_workload.h"
#include "model/context.h"
#include "query/conjunctive_query.h"
#include "query/consistent_answers.h"
#include "repair/block_solver.h"

namespace prefrep {
namespace {

// Two blocks keep the instance small enough that the walk still
// terminates at the largest clique count; the
// per-block repair space (s-1)^(c-1)·(s-1+c) is what the argument
// sweeps (cliques c at clique size s = 3: c=7 -> 576 repairs,
// c=9 -> 2816, c=11 -> 13312 per block).
constexpr size_t kBlocks = 2;
constexpr size_t kCliqueSize = 3;

PreferredRepairProblem CategoricityProblem(size_t cliques) {
  CategoricalWorkloadOptions opts;
  opts.blocks = kBlocks;
  opts.cliques = cliques;
  opts.clique_size = kCliqueSize;
  return MakeCategoricalWorkload(opts);
}

ConjunctiveQuery CategoricityQuery() {
  auto query = ConjunctiveQuery::Parse("Q(x) :- R1(x, y, z)");
  PREFREP_CHECK(query.ok());
  return *query;
}

// The consistent answers from the walk the total-priority rule saves:
// every block's optimal set through the exhaustive solver, their
// product, then the intersection.
std::vector<ConjunctiveQuery::AnswerTuple> WalkedAnswers(
    const ProblemContext& ctx, const ConjunctiveQuery& query) {
  std::vector<DynamicBitset> repairs{ctx.blocks().free_facts()};
  for (const Block& b : ctx.blocks().blocks()) {
    const std::vector<uint64_t> optimal =
        ExhaustiveBlockSolver().OptimalBlockRepairs(ctx, b);
    std::vector<DynamicBitset> next;
    for (const DynamicBitset& prefix : repairs) {
      for (uint64_t choice : optimal) {
        next.push_back(prefix);
        OrBlockMask(b, choice, &next.back());
      }
    }
    repairs = std::move(next);
  }
  std::vector<ConjunctiveQuery::AnswerTuple> out =
      query.Evaluate(ctx.instance(), repairs.front());
  for (size_t i = 1; i < repairs.size(); ++i) {
    std::vector<ConjunctiveQuery::AnswerTuple> next =
        query.Evaluate(ctx.instance(), repairs[i]);
    std::vector<ConjunctiveQuery::AnswerTuple> merged;
    std::set_intersection(out.begin(), out.end(), next.begin(), next.end(),
                          std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

// One full CQA request per iteration: fresh context (the serving
// layer's cache amortization is bench_serve's story; this pair measures
// the one-shot routes), global semantics, answer-set query.
void RunCqa(benchmark::State& state, bool walk) {
  PreferredRepairProblem problem = CategoricityProblem(
      static_cast<size_t>(state.range(0)));
  const ConjunctiveQuery query = CategoricityQuery();
  for (auto _ : state) {
    ProblemContext ctx(*problem.instance, *problem.priority);
    ctx.set_parallelism(1);
    if (walk) {
      benchmark::DoNotOptimize(WalkedAnswers(ctx, query).size());
    } else {
      auto answers =
          ConsistentAnswersBounded(ctx, query, AnswerSemantics::kGlobal);
      PREFREP_CHECK(answers.ok());
      benchmark::DoNotOptimize(answers->size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cliques"] = static_cast<double>(state.range(0));
}

void BM_CqaCategoricalFast(benchmark::State& state) {
  RunCqa(state, /*walk=*/false);
}
BENCHMARK(BM_CqaCategoricalFast)
    ->Arg(7)->Arg(9)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

void BM_CqaCategoricalEnum(benchmark::State& state) {
  RunCqa(state, /*walk=*/true);
}
BENCHMARK(BM_CqaCategoricalEnum)
    ->Arg(7)->Arg(9)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

// The decision alone (no query), fresh context per iteration.
void BM_DecideCategoricity(benchmark::State& state) {
  PreferredRepairProblem problem = CategoricityProblem(
      static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ProblemContext ctx(*problem.instance, *problem.priority);
    ctx.set_parallelism(1);
    CategoricityResult result =
        DecideCategoricity(ctx, RepairSemantics::kGlobal);
    PREFREP_CHECK(result.verdict == Categoricity::kCategorical);
    benchmark::DoNotOptimize(result.repair.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cliques"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DecideCategoricity)
    ->Arg(7)->Arg(9)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep
