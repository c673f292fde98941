// B17 — the categoricity fast path (classify/categoricity.h) versus the
// enumeration route it replaces.  The claim: on a certified-categorical
// instance CQA costs one polynomial pre-pass plus one query evaluation,
// while the enumeration path still walks every block's full optimal
// block-repair search; and on a near-miss instance (one block refutes
// categoricity) the pre-pass declines cheaply, so the fallback stays
// within noise of the forced enumeration.  Four measurements over the
// same clique-with-spine gadget (gen/categorical_workload.h):
//
//   BM_CqaCategoricalFast — default route on a total-priority workload:
//                           the pre-pass certifies every block and CQA
//                           evaluates the query on the one repair.
//   BM_CqaCategoricalEnum — the same query with force_enumeration: the
//                           fast path bypassed, the block solver walks
//                           the (s-1)^(c-1)·(s-1+c)-repair space.
//   BM_CqaNearMissFast    — default route with the near-miss knob: the
//                           pre-pass refutes on the broken block and
//                           falls back, paying the pre-pass for free.
//   BM_CqaNearMissEnum    — the forced-enumeration baseline for the
//                           near-miss pair (the fallback's floor).
//
// Threads are pinned to 1 so the ratio isolates the route, not the
// dispatch.  tools/bench_to_json.py turns the Fast/Enum pairs into the
// BENCH_categoricity.json speedup and fallback-overhead figures
// (EXPERIMENTS.md, B17).

#include <benchmark/benchmark.h>

#include <cstdint>

#include "classify/categoricity.h"
#include "gen/categorical_workload.h"
#include "model/context.h"
#include "query/conjunctive_query.h"
#include "query/consistent_answers.h"

namespace prefrep {
namespace {

// Two blocks keep the instance small enough that the forced
// enumeration still terminates at the largest clique count; the
// per-block repair space (s-1)^(c-1)·(s-1+c) is what the argument
// sweeps (cliques c at clique size s = 3: c=7 -> 576 repairs,
// c=9 -> 2816, c=11 -> 13312 per block).
constexpr size_t kBlocks = 2;
constexpr size_t kCliqueSize = 3;

PreferredRepairProblem CategoricityProblem(size_t cliques, bool near_miss) {
  CategoricalWorkloadOptions opts;
  opts.blocks = kBlocks;
  opts.cliques = cliques;
  opts.clique_size = kCliqueSize;
  opts.near_miss = near_miss;
  return MakeCategoricalWorkload(opts);
}

ConjunctiveQuery CategoricityQuery() {
  auto query = ConjunctiveQuery::Parse("Q(x) :- R1(x, y, z)");
  PREFREP_CHECK(query.ok());
  return *query;
}

// One full CQA request per iteration: fresh context (the serving
// layer's memo amortization is bench_serve's story; this pair measures
// the one-shot routes), global semantics, answer-set query.
void RunCqa(benchmark::State& state, bool near_miss, bool force) {
  PreferredRepairProblem problem =
      CategoricityProblem(static_cast<size_t>(state.range(0)), near_miss);
  const ConjunctiveQuery query = CategoricityQuery();
  CqaOptions options;
  options.force_enumeration = force;
  for (auto _ : state) {
    ProblemContext ctx(*problem.instance, *problem.priority);
    ctx.set_parallelism(1);
    auto answers = ConsistentAnswersBounded(ctx, query,
                                            AnswerSemantics::kGlobal, options);
    PREFREP_CHECK(answers.ok());
    benchmark::DoNotOptimize(answers->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cliques"] = static_cast<double>(state.range(0));
}

void BM_CqaCategoricalFast(benchmark::State& state) {
  RunCqa(state, /*near_miss=*/false, /*force=*/false);
}
BENCHMARK(BM_CqaCategoricalFast)
    ->Arg(7)->Arg(9)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

void BM_CqaCategoricalEnum(benchmark::State& state) {
  RunCqa(state, /*near_miss=*/false, /*force=*/true);
}
BENCHMARK(BM_CqaCategoricalEnum)
    ->Arg(7)->Arg(9)->Arg(11)
    ->Unit(benchmark::kMicrosecond);

// The near-miss pair stops at 9 cliques: the broken block's 2816
// optimal block-repairs already cost tens of milliseconds per request
// either way, which is plenty to resolve an overhead ratio near 1.0.
void BM_CqaNearMissFast(benchmark::State& state) {
  RunCqa(state, /*near_miss=*/true, /*force=*/false);
}
BENCHMARK(BM_CqaNearMissFast)
    ->Arg(7)->Arg(9)
    ->Unit(benchmark::kMicrosecond);

void BM_CqaNearMissEnum(benchmark::State& state) {
  RunCqa(state, /*near_miss=*/true, /*force=*/true);
}
BENCHMARK(BM_CqaNearMissEnum)
    ->Arg(7)->Arg(9)
    ->Unit(benchmark::kMicrosecond);

// The decision alone (no query), fresh context per iteration: the cost
// a serving session pays on a memo miss, and the absolute size of the
// "pre-pass for free" claim above.
void BM_DecideCategoricity(benchmark::State& state) {
  PreferredRepairProblem problem = CategoricityProblem(
      static_cast<size_t>(state.range(0)), /*near_miss=*/false);
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
