// Copyright (c) prefrep contributors.

#include "gen/categorical_workload.h"

#include "conflicts/conflicts.h"
#include "gen/hard_workloads.h"

namespace prefrep {

PreferredRepairProblem MakeCategoricalWorkload(
    const CategoricalWorkloadOptions& opts) {
  PREFREP_CHECK_MSG(opts.blocks >= 1, "need at least one block");
  PREFREP_CHECK_MSG(opts.cliques >= 2 && opts.clique_size >= 3,
                    "each block needs at least two cliques of at least "
                    "three facts (see MakeHardClusteredWorkload)");
  PreferredRepairProblem problem =
      MakeHardShardedWorkload(opts.blocks, opts.cliques, opts.clique_size);
  // Replace the per-clique domination priority with the total-by-id
  // completion: every conflicting pair gets an edge, the lower fact id
  // preferred.  Id order is a linear order, so the result is acyclic,
  // and edges connect conflicting facts only, so it stays
  // conflict-bounded.
  problem.priority = std::make_unique<PriorityRelation>(problem.instance.get());
  const ConflictGraph cg(*problem.instance);
  // The near-miss block is the last shard; MakeHardShardedWorkload adds
  // facts shard-contiguously, so its facts are exactly the last
  // cliques × clique_size ids.
  const size_t per_block = opts.cliques * opts.clique_size;
  const size_t near_miss_begin =
      opts.near_miss ? (opts.blocks - 1) * per_block : cg.num_facts();
  for (FactId u = 0; u < cg.num_facts(); ++u) {
    if (u >= near_miss_begin) {
      break;  // shards are independent: every later edge is internal
    }
    for (FactId v : cg.neighbors(u)) {
      if (u < v) {
        problem.priority->MustAdd(u, v);
      }
    }
  }
  // Greedy by id = the unique optimal repair under the total-by-id
  // priority (and still a repair of the stripped last block).
  problem.j = problem.instance->EmptySubinstance();
  for (FactId f = 0; f < cg.num_facts(); ++f) {
    bool blocked = false;
    for (FactId g : cg.neighbors(f)) {
      if (g < f && problem.j.test(g)) {
        blocked = true;
        break;
      }
    }
    if (!blocked) {
      problem.j.set(f);
    }
  }
  return problem;
}

}  // namespace prefrep
