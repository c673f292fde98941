// Copyright (c) prefrep contributors.
// Categorical workloads — instances whose priority is a *total order on
// every conflicting pair*, so each block has exactly one optimal
// block-repair (the greedy construction) and the whole instance exactly
// one optimal repair under all three semantics.  This is the shape the
// categoricity fast path (classify/categoricity.h) certifies in
// polynomial time while the enumeration path must still walk the
// block's full repair space: the blocks reuse the clique-with-spine
// gadget of MakeHardClusteredWorkload, so a block of `cliques` cliques
// of `clique_size` facts has (s-1)^(c-1) · (s-1+c) repairs — many
// repairs, one of them optimal.
//
// The near-miss knob breaks exactly ONE block: the last block keeps its
// conflicts but loses every priority edge, which makes all of its
// repairs optimal (no preference, no improvement) and the instance
// ambiguous.  Benchmarks use the pair — same size, same conflict graph,
// verdicts kCategorical vs kAmbiguous — to measure the fast path's
// speedup against the fallback's cost.

#ifndef PREFREP_GEN_CATEGORICAL_WORKLOAD_H_
#define PREFREP_GEN_CATEGORICAL_WORKLOAD_H_

#include "model/problem.h"

namespace prefrep {

/// Knobs for MakeCategoricalWorkload.
struct CategoricalWorkloadOptions {
  /// Independent conflict blocks (shards on distinct constants).
  size_t blocks = 4;
  /// Conflict cliques per block (>= 2; the member-0 spine stitches them
  /// into one block — see MakeHardClusteredWorkload).
  size_t cliques = 3;
  /// Facts per clique (>= 3).
  size_t clique_size = 3;
  /// Strips the LAST block's priority edges: that block's repairs are
  /// then all optimal, the instance is ambiguous, and exactly one block
  /// refutes categoricity.
  bool near_miss = false;
};

/// Builds `blocks` copies of the S1 clique-with-spine gadget and
/// totally orders every conflicting pair by fact id (lower id
/// preferred) — acyclic and conflict-bounded by construction.
/// `problem.j` is the greedy-by-id repair, which is the instance's
/// unique optimal repair whenever `near_miss` is off (and still a
/// repair when it is on).
PreferredRepairProblem MakeCategoricalWorkload(
    const CategoricalWorkloadOptions& opts);

}  // namespace prefrep

#endif  // PREFREP_GEN_CATEGORICAL_WORKLOAD_H_
