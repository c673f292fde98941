// B1 — polynomial scaling of GRepCheck1FD (Theorem 3.1, condition 1;
// §4.1).  Sweeps the instance size for optimal and non-optimal
// candidate repairs, and a many-small-blocks series through the
// per-block checker; also reports the definitional improvement check in
// isolation.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "model/context.h"
#include "repair/checker.h"
#include "repair/global_one_fd.h"
#include "repair/improvement.h"

namespace prefrep {
namespace {

const FD kFd(AttrSet{1}, AttrSet{2});

void BM_OneFd_OptimalJ(benchmark::State& state) {
  // High-priority greedy J is (almost always) optimal: worst case for
  // the algorithm, which must try every swap before accepting.
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kHighPriorityRepair);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r =
        CheckGlobalOptimalOneFd(cg, *problem.priority, 0, kFd, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OneFd_OptimalJ)->RangeMultiplier(2)->Range(16, 2048)
    ->Complexity(benchmark::oNSquared);

void BM_OneFd_ImprovableJ(benchmark::State& state) {
  // Low-priority J admits improvements: the scan usually exits early.
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kLowPriorityRepair);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r =
        CheckGlobalOptimalOneFd(cg, *problem.priority, 0, kFd, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OneFd_ImprovableJ)->RangeMultiplier(2)->Range(16, 2048)
    ->Complexity();

void BM_OneFd_SmallBlocksChecker(benchmark::State& state) {
  // ~4-fact blocks (the domain grows with n) checked through
  // RepairChecker, which runs GRepCheck1FD once per block on the block's
  // own fact list: the cost should grow linearly with the instance.
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kHighPriorityRepair);
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.set_parallelism(1);
  RepairChecker checker(ctx);
  state.counters["blocks"] =
      static_cast<double>(ctx.blocks().num_blocks());
  for (auto _ : state) {
    Result<CheckOutcome> r = checker.CheckGloballyOptimal(problem.j);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OneFd_SmallBlocksChecker)->RangeMultiplier(2)->Range(1024, 8192)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_OneFd_SwapConstruction(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kRandomRepair);
  const Instance& inst = *problem.instance;
  ConflictGraph cg(inst);
  // Find one conflicting (f ∈ J, g ∉ J) pair to swap repeatedly.
  FactId f = kInvalidFactId, g = kInvalidFactId;
  for (FactId cand = 0; cand < inst.num_facts() && f == kInvalidFactId;
       ++cand) {
    if (!problem.j.test(cand)) {
      continue;
    }
    for (FactId n : cg.neighbors(cand)) {
      if (!problem.j.test(n)) {
        f = cand;
        g = n;
        break;
      }
    }
  }
  if (f == kInvalidFactId) {
    state.SkipWithError("no conflicting pair straddling J");
    return;
  }
  for (auto _ : state) {
    DynamicBitset swapped =
        SwapBlocks(inst, kFd, inst.facts_of(0), problem.j, f, g);
    benchmark::DoNotOptimize(swapped.count());
  }
}
BENCHMARK(BM_OneFd_SwapConstruction)->RangeMultiplier(4)->Range(16, 4096);

void BM_IsGlobalImprovement(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kLowPriorityRepair);
  ConflictGraph cg(*problem.instance);
  DynamicBitset other =
      GenerateRandomProblem(bench::OneFdSchema(),
                            [&] {
                              RandomProblemOptions o;
                              o.facts_per_relation =
                                  static_cast<size_t>(state.range(0));
                              o.domain_size =
                                  static_cast<size_t>(state.range(0) / 4 + 2);
                              o.seed = 42;  // same instance, different J
                              o.j_policy = JPolicy::kHighPriorityRepair;
                              return o;
                            }())
          .j;
  for (auto _ : state) {
    bool r = IsGlobalImprovement(cg, *problem.priority, problem.j, other);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IsGlobalImprovement)->RangeMultiplier(4)->Range(16, 4096);

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
