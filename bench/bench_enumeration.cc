// B8 — repair enumeration and counting: growth of the repair space with
// conflict density, the Bron–Kerbosch enumerator's throughput, and the
// cost of materializing all optimal repairs per semantics.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "conflicts/conflicts.h"
#include "repair/block_solver.h"
#include "repair/exhaustive.h"

namespace prefrep {
namespace {

// Density sweep: domain size 2 creates huge conflict groups (few, large
// repairs); large domains approach conflict-free (single repair).
void BM_Enumeration_DensitySweep(benchmark::State& state) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 24;
  opts.domain_size = static_cast<size_t>(state.range(0));
  opts.seed = 5;
  PreferredRepairProblem problem =
      GenerateRandomProblem(bench::OneFdSchema(), opts);
  ConflictGraph cg(*problem.instance);
  uint64_t repairs = 0;
  for (auto _ : state) {
    repairs = CountRepairs(cg);
    benchmark::DoNotOptimize(repairs);
  }
  state.counters["repairs"] = static_cast<double>(repairs);
  state.counters["conflicts"] = static_cast<double>(cg.num_edges());
}
BENCHMARK(BM_Enumeration_DensitySweep)->DenseRange(2, 12, 2);

void BM_Enumeration_SizeSweep(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kRandomRepair);
  ConflictGraph cg(*problem.instance);
  uint64_t repairs = 0;
  for (auto _ : state) {
    repairs = CountRepairs(cg);
    benchmark::DoNotOptimize(repairs);
  }
  state.counters["repairs"] = static_cast<double>(repairs);
}
BENCHMARK(BM_Enumeration_SizeSweep)->RangeMultiplier(2)->Range(8, 64);

void BM_Enumeration_ConflictGraphBuild(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kRandomRepair);
  for (auto _ : state) {
    ConflictGraph cg(*problem.instance);
    benchmark::DoNotOptimize(cg.num_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Enumeration_ConflictGraphBuild)->RangeMultiplier(2)
    ->Range(64, 8192)->Complexity();

void BM_Enumeration_AllOptimal(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), 20, JPolicy::kRandomRepair,
      /*seed=*/1);
  ConflictGraph cg(*problem.instance);
  RepairSemantics semantics =
      state.range(0) == 0
          ? RepairSemantics::kGlobal
          : (state.range(0) == 1 ? RepairSemantics::kPareto
                                 : RepairSemantics::kCompletion);
  size_t count = 0;
  for (auto _ : state) {
    ProblemContext ctx(cg, *problem.priority);
    ctx.set_parallelism(1);
    count = AllOptimalRepairs(ctx, semantics).size();
    benchmark::DoNotOptimize(count);
  }
  state.SetLabel(state.range(0) == 0   ? "global"
                 : state.range(0) == 1 ? "pareto"
                                       : "completion");
  state.counters["optimal"] = static_cast<double>(count);
}
BENCHMARK(BM_Enumeration_AllOptimal)->DenseRange(0, 2, 1);

// --- Ablations (design choices called out in DESIGN.md) ---------------------

// Bron–Kerbosch pivoting: enumeration with and without the pivot.
void BM_Ablation_EnumerationPivot(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), 32, JPolicy::kRandomRepair,
      /*seed=*/11);
  ConflictGraph cg(*problem.instance);
  bool use_pivot = state.range(0) == 1;
  uint64_t count = 0;
  for (auto _ : state) {
    count = 0;
    auto counter = [&count](const DynamicBitset&) {
      ++count;
      return true;
    };
    if (use_pivot) {
      ForEachRepair(cg, counter);
    } else {
      ForEachRepairNoPivot(cg, counter);
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetLabel(use_pivot ? "pivot" : "no-pivot");
  state.counters["repairs"] = static_cast<double>(count);
}
BENCHMARK(BM_Ablation_EnumerationPivot)->DenseRange(0, 1, 1);

// Conflict detection: hash-bucketed construction vs naive all-pairs.
void BM_Ablation_ConflictDetection(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::OneFdSchema(), state.range(0), JPolicy::kRandomRepair);
  bool hashed = state.range(1) == 1;
  size_t edges = 0;
  for (auto _ : state) {
    if (hashed) {
      ConflictGraph cg(*problem.instance);
      edges = cg.num_edges();
    } else {
      edges = AllConflictPairsNaive(*problem.instance).size();
    }
    benchmark::DoNotOptimize(edges);
  }
  state.SetLabel(hashed ? "hashed" : "naive");
  state.counters["conflicts"] = static_cast<double>(edges);
}
BENCHMARK(BM_Ablation_ConflictDetection)
    ->ArgsProduct({{256, 1024, 4096}, {0, 1}});

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
