// Copyright (c) prefrep contributors.
// Globally-optimal repair checking for a single-relation schema whose FD
// set is equivalent to two key constraints A1 → ⟦R⟧, A2 → ⟦R⟧ with
// A1 ⊄ A2 and A2 ⊄ A1 (§4.2, algorithm GRepCheck2Keys of Figure 4).
//
// By Lemma 4.4, a repair J has a global improvement iff it has a Pareto
// improvement or one of the bipartite graphs G12_J / G21_J has a cycle:
//
//   * left nodes are A1-projections, right nodes A2-projections;
//   * f ∈ J contributes the forward edge f[A1] → f[A2];
//   * f′ ∈ I \ J with f′ ≻ f for some f ∈ J with f[A2] = f′[A2]
//     contributes the backward edge f′[A2] → f′[A1];
//   * G21_J swaps the roles of A1 and A2.
//
// A cycle alternates forward and backward edges and translates directly
// into a global improvement (the returned witness).

#ifndef PREFREP_REPAIR_GLOBAL_TWO_KEYS_H_
#define PREFREP_REPAIR_GLOBAL_TWO_KEYS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "graph/digraph.h"
#include "repair/improvement.h"

namespace prefrep {

/// The bipartite improvement graph G^{first,second}_J of §4.2.
///
/// Nodes are projections of facts onto `first_key` (left side) and
/// `second_key` (right side); labels render the projected constants.
/// Exposed so tests can reproduce Figure 3 and so witnesses can be
/// reconstructed from cycles.
struct KeyedImprovementGraph {
  Digraph graph;
  /// Render of each node's projection, e.g. "lib1" or "(a, b)".
  std::vector<std::string> labels;
  /// True for left-side nodes (first-key projections).
  std::vector<bool> is_left;
  /// For each left node, the unique J-fact projecting to it
  /// (kInvalidFactId if the node only appears via backward edges).
  std::vector<FactId> left_fact;
  /// For each right node, the unique J-fact projecting to it.
  std::vector<FactId> right_fact;
  /// Witness f′ ∈ I \ J for each backward edge (right node, left node).
  std::unordered_map<std::pair<size_t, size_t>, FactId,
                     PairHash<size_t, size_t>>
      backward_witness;

  /// Looks up a node by its label; SIZE_MAX if absent.  For tests.
  size_t FindNode(const std::string& label, bool left) const;

  /// True iff the graph has an edge between the labelled nodes.
  bool HasEdge(const std::string& from_label, bool from_left,
               const std::string& to_label, bool to_left) const;
};

/// Builds G^{first,second}_J over the facts of `facts`: a set of facts of
/// one relation closed under conflicts (a conflict block, or
/// facts_of(rel)).  Requires J ∩ facts to be consistent with respect to
/// both keys (so that projections of J-facts onto either key are
/// unique).  Facts of different blocks never share a key projection, so
/// the whole-relation graph is the disjoint union of the per-block
/// graphs.  Nodes are numbered in first-seen order over the list.
KeyedImprovementGraph BuildImprovementGraph(const Instance& instance,
                                            const PriorityRelation& pr,
                                            AttrSet first_key,
                                            AttrSet second_key,
                                            const std::vector<FactId>& facts,
                                            const DynamicBitset& j);

/// BuildImprovementGraph over the whole relation `rel` (facts_of(rel)).
KeyedImprovementGraph BuildImprovementGraph(const Instance& instance,
                                            const PriorityRelation& pr,
                                            RelId rel, AttrSet first_key,
                                            AttrSet second_key,
                                            const DynamicBitset& j);

/// GRepCheck2Keys over the facts of `facts` (a conflict block, or
/// facts_of(rel)): decides whether J ∩ facts is a globally-optimal
/// repair of `facts`, where ∆ restricted to their relation is equivalent
/// to the two key constraints key1 → ⟦R⟧ and key2 → ⟦R⟧ (incomparable).
/// Arbitrary J is handled (a J inconsistent or non-maximal on the list
/// is rejected).
CheckResult CheckGlobalOptimalTwoKeys(const ConflictGraph& cg,
                                      const PriorityRelation& pr,
                                      AttrSet key1, AttrSet key2,
                                      const std::vector<FactId>& facts,
                                      const DynamicBitset& j);

/// GRepCheck2Keys over the whole relation `rel`: decides whether J ∩ rel
/// is a globally-optimal repair of I ∩ rel.
CheckResult CheckGlobalOptimalTwoKeys(const ConflictGraph& cg,
                                      const PriorityRelation& pr, RelId rel,
                                      AttrSet key1, AttrSet key2,
                                      const DynamicBitset& j);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_GLOBAL_TWO_KEYS_H_
