// B4 — the dichotomy made visible: exact (exponential) globally-optimal
// repair checking on the six hard schemas S1..S6 of Example 3.4, next to
// the polynomial algorithms on structurally similar tractable twins.
// The hard side grows exponentially in the instance size while the twins
// stay polynomial — the "who wins, and where it explodes" shape that
// Theorem 3.1 predicts.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "gen/hard_workloads.h"
#include "model/context.h"
#include "reductions/hard_schemas.h"
#include "repair/block_solver.h"
#include "repair/checker.h"
#include "repair/counting.h"
#include "repair/exhaustive.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"

namespace prefrep {
namespace {

// Choice-gadget workloads: `groups` independent conflicting pairs give
// exactly 2^groups repairs, and J = all-preferred is globally optimal,
// so the exact checker must exhaust the whole space to accept — time
// doubles per unit of the argument.
void RunExhaustive(benchmark::State& state, int schema_index) {
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      schema_index, static_cast<size_t>(state.range(0)),
      HardJ::kAllPreferred);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r =
        ExhaustiveCheckGlobalOptimal(cg, *problem.priority, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.counters["repairs"] = static_cast<double>(CountRepairs(cg));
  state.SetComplexityN(state.range(0));
}

void BM_Hard_S1(benchmark::State& state) { RunExhaustive(state, 1); }
void BM_Hard_S2(benchmark::State& state) { RunExhaustive(state, 2); }
void BM_Hard_S3(benchmark::State& state) { RunExhaustive(state, 3); }
void BM_Hard_S4(benchmark::State& state) { RunExhaustive(state, 4); }
void BM_Hard_S5(benchmark::State& state) { RunExhaustive(state, 5); }
void BM_Hard_S6(benchmark::State& state) { RunExhaustive(state, 6); }

// Exponential territory: 16 gadgets = 65536 repairs.
BENCHMARK(BM_Hard_S1)->DenseRange(4, 16, 4);
BENCHMARK(BM_Hard_S2)->DenseRange(4, 16, 4);
BENCHMARK(BM_Hard_S3)->DenseRange(4, 16, 4);
BENCHMARK(BM_Hard_S4)->DenseRange(4, 16, 4);
BENCHMARK(BM_Hard_S5)->DenseRange(4, 16, 4);
BENCHMARK(BM_Hard_S6)->DenseRange(4, 16, 4);

// The improvable twin input: J = all-dispreferred on the same gadgets.
// The exact checker exits at the first witness, so even the hard
// schemas answer quickly when the answer is "no" — the asymmetry that
// makes the problem coNP- (not NP-) complete.
void BM_Hard_S1_ImprovableJ(benchmark::State& state) {
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      1, static_cast<size_t>(state.range(0)), HardJ::kAllDispreferred);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r =
        ExhaustiveCheckGlobalOptimal(cg, *problem.priority, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_Hard_S1_ImprovableJ)->DenseRange(4, 16, 4);

// Tractable twin of S2: the same fds {1→2, 2→1} over a *binary*
// relation are two keys — polynomial via GRepCheck2Keys at sizes far
// beyond where ternary S2 explodes.
void BM_Twin_S2Binary(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), state.range(0), JPolicy::kHighPriorityRepair,
      /*seed=*/7);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r = CheckGlobalOptimalTwoKeys(
        cg, *problem.priority, 0, AttrSet{1}, AttrSet{2}, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_Twin_S2Binary)->RangeMultiplier(2)->Range(8, 2048);

// Tractable twin of S4: dropping 2→3 from {1→2, 2→3} leaves a single
// fd — polynomial via GRepCheck1FD.
void BM_Twin_S4SingleFd(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kHighPriorityRepair,
      /*seed=*/7);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r = CheckGlobalOptimalOneFd(
        cg, *problem.priority, 0, FD(AttrSet{1}, AttrSet{2}), problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_Twin_S4SingleFd)->RangeMultiplier(2)->Range(8, 2048);

// The block decomposition's payoff: k disjoint S1 gadgets are k
// conflict blocks of two facts each, so whole-instance exhaustive
// checking enumerates all 2^k repairs while the per-block dispatch
// enumerates 4 block-repairs per block — k·4 instead of 2^k.  Same
// input, same (hard) schema, same verdict; only the decomposition
// differs.  Numbers are recorded in EXPERIMENTS.md.
void BM_MultiBlock_WholeInstance(benchmark::State& state) {
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      1, static_cast<size_t>(state.range(0)), HardJ::kAllPreferred);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r =
        ExhaustiveCheckGlobalOptimal(cg, *problem.priority, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.counters["blocks"] = static_cast<double>(state.range(0));
  state.counters["repairs"] = static_cast<double>(CountRepairs(cg));
}
BENCHMARK(BM_MultiBlock_WholeInstance)->DenseRange(4, 20, 4);

void BM_MultiBlock_PerBlock(benchmark::State& state) {
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      1, static_cast<size_t>(state.range(0)), HardJ::kAllPreferred);
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.Prime();
  for (auto _ : state) {
    CheckResult r =
        CheckOptimalByBlocks(ctx, problem.j, RepairSemantics::kGlobal,
                             PriorityMode::kConflictOnly);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.counters["blocks"] =
      static_cast<double>(ctx.blocks().num_blocks());
}
BENCHMARK(BM_MultiBlock_PerBlock)->DenseRange(4, 20, 4);

// The same contrast through the production entry point: RepairChecker
// routes the hard relation's exhaustive fallback per block, so even the
// coNP-hard S1 schema is cheap while its blocks stay small.
void BM_MultiBlock_Checker(benchmark::State& state) {
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      1, static_cast<size_t>(state.range(0)), HardJ::kAllPreferred);
  RepairChecker checker(*problem.instance, *problem.priority);
  for (auto _ : state) {
    Result<CheckOutcome> r = checker.CheckGloballyOptimal(problem.j);
    benchmark::DoNotOptimize(r.value().result.optimal);
  }
}
BENCHMARK(BM_MultiBlock_Checker)->DenseRange(4, 20, 4);

// Repair counting on a hard schema: the raw search-space growth that
// the exact checker contends with.
void BM_Hard_RepairCount(benchmark::State& state) {
  PreferredRepairProblem problem = MakeHardChoiceWorkload(
      1, static_cast<size_t>(state.range(0)), HardJ::kAllPreferred);
  ConflictGraph cg(*problem.instance);
  uint64_t repairs = 0;
  for (auto _ : state) {
    repairs = CountRepairs(cg);
    benchmark::DoNotOptimize(repairs);
  }
  state.counters["repairs"] = static_cast<double>(repairs);
}
BENCHMARK(BM_Hard_RepairCount)->DenseRange(4, 20, 4);

// Counting globally-optimal repairs on the hard side, serially: 16
// distinct S1 blocks of (cliques, clique size) = the two arguments.
// Each block is walked once and its block-repairs are filtered
// pairwise (docs/algorithms.md); numbers are in EXPERIMENTS.md B23.
void BM_Hard_OptimalCount(benchmark::State& state) {
  PreferredRepairProblem problem = MakeHardShardedWorkload(
      16, static_cast<size_t>(state.range(0)),
      static_cast<size_t>(state.range(1)), /*distinct_blocks=*/true);
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.set_parallelism(1);
  ctx.Prime();
  BoundedCount count;
  for (auto _ : state) {
    count = CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
    benchmark::DoNotOptimize(count.lower_bound);
  }
  state.counters["optimal_repairs"] = static_cast<double>(count.lower_bound);
}
BENCHMARK(BM_Hard_OptimalCount)
    ->Args({4, 4})
    ->Args({5, 4})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
