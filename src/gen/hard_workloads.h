// Copyright (c) prefrep contributors.
// Structured adversarial workloads for the six hard schemas of
// Example 3.4.  Each instance consists of `groups` independent
// conflicting fact pairs (a "choice gadget" per group), so the repair
// space has exactly 2^groups elements — the shape that makes the
// exponential exact checker visibly exponential in the benchmarks while
// remaining trivially verifiable in tests.
//
// Per gadget the two facts are "hi" (preferred) and "lo", with
// hi ≻ lo.  J can be the all-hi repair (globally optimal: the checker
// must exhaust the space to accept) or the all-lo repair (every gadget
// improvable: checkers find a witness quickly).

#ifndef PREFREP_GEN_HARD_WORKLOADS_H_
#define PREFREP_GEN_HARD_WORKLOADS_H_

#include "model/problem.h"

namespace prefrep {

/// Which candidate J the workload carries.
enum class HardJ {
  kAllPreferred,     ///< globally-optimal: exact checking exhausts 2^groups
  kAllDispreferred,  ///< improvable everywhere: witnesses abound
};

/// Builds the choice-gadget instance for hard schema S`index` (1..6)
/// with the given number of independent gadgets.
/// Facts are labeled "hi:i" / "lo:i".
PreferredRepairProblem MakeHardChoiceWorkload(int index, size_t groups,
                                              HardJ j_choice);

/// Builds a *single-block* workload on hard schema S1 ({12→3, 13→2,
/// 23→1}): `cliques` conflict cliques of `clique_size` facts each
/// (members of a clique share attributes 1 and 2 and differ on 3, so
/// 12→3 makes them pairwise conflicting), stitched into one block by a
/// spine — member 0 of every clique additionally shares attributes 2
/// and 3 globally, so 23→1 makes the member-0s pairwise conflicting
/// across cliques.
///
/// Unlike MakeHardChoiceWorkload, whose gadgets decompose into 2-fact
/// blocks, the whole instance here is ONE block of
/// cliques × clique_size facts with
///     (s-1)^(c-1) · (s-1+c)   repairs   (s = clique_size, c = cliques)
/// — e.g. 13 cliques of 3 give a 39-fact block with 61440 repairs.
/// This is the shape that exercises the resource governor: the block
/// passes the 63-fact admission limit, but exhaustively scanning it is
/// real work that a deadline or node budget interrupts mid-block.
///
/// Priority (conflict-bounded): member 1 of each clique dominates every
/// other member of its clique.  `problem.j` is the set of all member-1
/// facts, which is a globally-optimal (and Pareto-optimal) repair —
/// nothing dominates a member 1 — so exact checking must exhaust the
/// block.  Facts are labeled "q<i>:f<j>".
PreferredRepairProblem MakeHardClusteredWorkload(size_t cliques,
                                                 size_t clique_size);

/// `shards` independent copies of MakeHardClusteredWorkload(cliques,
/// clique_size), each on its own constants so no FD ever fires across
/// copies: the instance decomposes into exactly `shards` equally
/// expensive exponential blocks.  This is the shape the parallel
/// per-block solver (repair/parallel_solver.h) is built for — the
/// serial exact check costs shards × t_block, the parallel one
/// max-block t_block plus merge, with identical verdicts — and the
/// workload bench/bench_parallel.cc measures scaling on.  J is the
/// per-shard optimal J (all member-1 facts), so exact checking must
/// exhaust every block.  Facts are labeled "s<s>:q<q>:f<j>".
///
/// With `distinct_blocks` false (the default) every shard is a
/// constant-renamed copy of the same block — the best case for the
/// block-solve cache (cache/block_cache.h), whose canonical
/// fingerprints collapse all shards onto one entry.  With it true,
/// shard s drops the priority edge f1 → f_j of clique q whenever bit
/// (p mod 64) of s is set, where p = q·(clique_size−1) + (j == 0 ? 0
/// : j−1) numbers the droppable edges; distinct shard indices below
/// 2^min(64, cliques·(clique_size−1)) thus carry pairwise-distinct
/// priority edge sets — same conflict graph, same repair space, same
/// optimal J (dropping edges never creates a domination over a
/// member-1 fact), same exhaustive cost, but no two blocks share a
/// canonical fingerprint.  That is the cache's worst case, which
/// bench/bench_cache.cc uses as the A/B control.
PreferredRepairProblem MakeHardShardedWorkload(size_t shards, size_t cliques,
                                               size_t clique_size,
                                               bool distinct_blocks = false);

}  // namespace prefrep

#endif  // PREFREP_GEN_HARD_WORKLOADS_H_
