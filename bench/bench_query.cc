// B10 — consistent query answering under preferred repairs (the
// library's extension toward the paper's stated open problem, §8):
// evaluation cost of CQs, and the cost of certain-answer computation as
// the repair space grows — exponential under every semantics, which is
// why the paper calls the complexity classification an open problem.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "gen/hard_workloads.h"
#include "query/consistent_answers.h"

namespace prefrep {
namespace {

void BM_Query_EvaluateJoin(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kRandomRepair);
  auto q = ConjunctiveQuery::Parse("Q(x, z) :- R(x, y, z), R(z, w, u)");
  PREFREP_CHECK(q.ok());
  DynamicBitset all = problem.instance->AllFacts();
  for (auto _ : state) {
    auto answers = q->Evaluate(*problem.instance, all);
    benchmark::DoNotOptimize(answers.size());
  }
}
BENCHMARK(BM_Query_EvaluateJoin)->RangeMultiplier(4)->Range(16, 1024);

void BM_Query_ConsistentAnswers(benchmark::State& state) {
  // Choice gadgets: 2^g repairs; answering over all of them is the
  // exponential wall.
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      4, static_cast<size_t>(state.range(0)), HardJ::kAllPreferred);
  ConflictGraph cg(*problem.instance);
  auto q = ConjunctiveQuery::Parse("Q(x) :- R4(x, y, z)");
  PREFREP_CHECK(q.ok());
  for (auto _ : state) {
    const ProblemContext ctx(cg, *problem.priority);
    auto answers =
        ConsistentAnswers(ctx, *q, AnswerSemantics::kAllRepairs);
    benchmark::DoNotOptimize(answers.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Query_ConsistentAnswers)->DenseRange(4, 12, 2);

void BM_Query_PreferredAnswersPruneFaster(benchmark::State& state) {
  // Under the global semantics, the gadget priorities collapse the
  // optimal-repair set to a single repair — but finding that out still
  // costs an enumeration: the measurement shows semantics do not
  // rescue the exponential by themselves.
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      4, static_cast<size_t>(state.range(0)), HardJ::kAllPreferred);
  ConflictGraph cg(*problem.instance);
  auto q = ConjunctiveQuery::Parse("Q(x) :- R4(x, y, z)");
  PREFREP_CHECK(q.ok());
  for (auto _ : state) {
    const ProblemContext ctx(cg, *problem.priority);
    auto answers = ConsistentAnswers(ctx, *q, AnswerSemantics::kGlobal);
    benchmark::DoNotOptimize(answers.size());
  }
}
BENCHMARK(BM_Query_PreferredAnswersPruneFaster)->DenseRange(4, 10, 2);

void BM_Query_CertainlyTrueEarlyExit(benchmark::State& state) {
  // Boolean certain answering can exit at the first repair violating Q.
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      4, static_cast<size_t>(state.range(0)), HardJ::kAllPreferred);
  ConflictGraph cg(*problem.instance);
  // "some fact has the lo-marker in attribute 2": false in the all-hi
  // repair, so the scan can stop as soon as it sees one.
  auto q = ConjunctiveQuery::Parse("Q() :- R4(x, \"m0_lo\", z)");
  PREFREP_CHECK(q.ok());
  for (auto _ : state) {
    const ProblemContext ctx(cg, *problem.priority);
    bool certain = CertainlyTrue(ctx, *q, AnswerSemantics::kAllRepairs);
    benchmark::DoNotOptimize(certain);
  }
}
BENCHMARK(BM_Query_CertainlyTrueEarlyExit)->DenseRange(4, 12, 2);

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
