// B18 — the conflict-detection hot path after the columnar rewrite
// (docs/memory-layout.md): the flat-hash LHS join over arena rows
// against the preserved pre-columnar reference join
// (AllConflictPairsHashedReference), the same join with the SIMD kernel
// forced to its scalar fallback (the honest portability number), the
// block decomposition and consistency scan riding on the same kernels,
// and the FactsAgreeOn micro-kernel with and without an early exit to
// take.  tools/bench_to_json.py --suite hotpath distills this binary
// into BENCH_hotpath.json; tools/perf_gate.py compares that against the
// committed baseline and fails CTest on regression.

#include <benchmark/benchmark.h>

#include "base/simd.h"
#include "conflicts/blocks.h"
#include "conflicts/conflicts.h"
#include "gen/hard_workloads.h"
#include "repair/subinstance_ops.h"

namespace prefrep {
namespace {

// The hard sharded workload with distinct blocks: `shards` independent
// exponential blocks of 7 cliques x 3 facts, no two alike — every fact
// goes through the join, nothing collapses.  This is the shape the
// conflict-pair build dominates end-to-end solve time on.
PreferredRepairProblem HotWorkload(int64_t shards) {
  return MakeHardShardedWorkload(static_cast<size_t>(shards), 7, 3,
                                 /*distinct_blocks=*/true);
}

// The conflict-pair build: the flat columnar join kernel against the
// preserved pre-columnar reference join, same output (sorted unique
// pair list).  flat_speedup = reference / flat is the headline ratio
// the perf gate floors at 3x.
void BM_ConflictPairsFlat(benchmark::State& state) {
  PreferredRepairProblem problem = HotWorkload(state.range(0));
  for (auto _ : state) {
    auto pairs = AllConflictPairsFlat(*problem.instance);
    benchmark::DoNotOptimize(pairs.size());
  }
  state.counters["facts"] =
      static_cast<double>(problem.instance->num_facts());
}
BENCHMARK(BM_ConflictPairsFlat)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// The same kernel with the word-parallel equality primitive forced to
// its scalar fallback — what a target without SSE2/NEON pays.
// Reported separately in EXPERIMENTS.md B18; the perf gate bounds it
// against the vector kernel, not against the reference.
void BM_ConflictPairsFlatScalar(benchmark::State& state) {
  PreferredRepairProblem problem = HotWorkload(state.range(0));
  simd::SetForceScalar(true);
  for (auto _ : state) {
    auto pairs = AllConflictPairsFlat(*problem.instance);
    benchmark::DoNotOptimize(pairs.size());
  }
  simd::SetForceScalar(false);
}
BENCHMARK(BM_ConflictPairsFlatScalar)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// The pre-columnar production join (nested node-based hash maps keyed
// by materialized projection vectors), preserved as an ablation
// baseline.
void BM_ConflictPairsReference(benchmark::State& state) {
  PreferredRepairProblem problem = HotWorkload(state.range(0));
  for (auto _ : state) {
    auto pairs = AllConflictPairsHashedReference(*problem.instance);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_ConflictPairsReference)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// The full ConflictGraph construction (pair join + adjacency
// materialization) — the end-to-end figure solvers actually pay.
void BM_ConflictGraphBuild(benchmark::State& state) {
  PreferredRepairProblem problem = HotWorkload(state.range(0));
  for (auto _ : state) {
    ConflictGraph cg(*problem.instance);
    benchmark::DoNotOptimize(cg.num_edges());
  }
}
BENCHMARK(BM_ConflictGraphBuild)->Arg(32)->Unit(benchmark::kMicrosecond);

// Block decomposition downstream of the join: graph built once, the
// partition re-derived per iteration.
void BM_BlockDecomposition(benchmark::State& state) {
  PreferredRepairProblem problem = HotWorkload(state.range(0));
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    BlockDecomposition blocks(cg, *problem.priority);
    benchmark::DoNotOptimize(blocks.num_blocks());
  }
}
BENCHMARK(BM_BlockDecomposition)->Arg(32)->Unit(benchmark::kMicrosecond);

// FindViolation over a consistent subinstance (the per-shard optimal J)
// — the worst case for the violation scan: every live fact is hashed
// and compared, no early return.  Exercises the same projection kernel
// as the join, through repair/subinstance_ops.cc.
void BM_ConsistencyScan(benchmark::State& state) {
  PreferredRepairProblem problem = HotWorkload(state.range(0));
  for (auto _ : state) {
    bool ok = IsConsistent(*problem.instance, problem.j);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ConsistencyScan)->Arg(32)->Unit(benchmark::kMicrosecond);

// The FactsAgreeOn micro-kernel on a wide (arity-16) relation with a
// 12-attribute lhs.  EarlyExit compares facts that disagree on the
// first lhs attribute — one probe settles it; FullScan compares facts
// that agree on the whole lhs — all 12 columns are read.  The gap is
// the short-circuit this PR adds (the pre-rewrite kernel walked every
// attribute via ForEach either way).
struct WideAgreeFixture {
  Schema schema;
  Instance instance;
  AttrSet lhs;

  WideAgreeFixture()
      : schema(MakeSchema()), instance(&schema) {
    for (int a = 1; a <= 12; ++a) {
      lhs.Add(a);
    }
    // f0/f1 agree on attributes 1..12 (full scan), f0/f2 differ at
    // attribute 1 (early exit).  All differ somewhere (distinct facts).
    std::vector<std::string> base(16, "c");
    for (int i = 0; i < 16; ++i) {
      base[i] = "c" + std::to_string(i);
    }
    instance.MustAddFact("W", base, "f0");
    std::vector<std::string> agree = base;
    agree[15] = "x";
    instance.MustAddFact("W", agree, "f1");
    std::vector<std::string> differ = base;
    differ[0] = "y";
    instance.MustAddFact("W", differ, "f2");
  }

  static Schema MakeSchema() {
    AttrSet l;
    for (int a = 1; a <= 12; ++a) {
      l.Add(a);
    }
    return Schema::SingleRelation("W", 16, {FD(l, AttrSet{13})});
  }
};

void BM_AgreeEarlyExit(benchmark::State& state) {
  WideAgreeFixture fx;
  const Fact f0 = fx.instance.fact(0);
  const Fact f2 = fx.instance.fact(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FactsAgreeOn(f0, f2, fx.lhs));
  }
}
BENCHMARK(BM_AgreeEarlyExit);

void BM_AgreeFullScan(benchmark::State& state) {
  WideAgreeFixture fx;
  const Fact f0 = fx.instance.fact(0);
  const Fact f1 = fx.instance.fact(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FactsAgreeOn(f0, f1, fx.lhs));
  }
}
BENCHMARK(BM_AgreeFullScan);

}  // namespace
}  // namespace prefrep
