// Copyright (c) prefrep contributors.
// δ-conflicts and conflict graphs (§2.2).  Two facts form a δ-conflict for
// an FD δ = R: A → B if they agree on A and disagree on B.  Facts conflict
// if they form a δ-conflict for some δ ∈ ∆.  Since FDs are binary-violation
// constraints, a subinstance is consistent iff it is an independent set of
// the conflict graph.

#ifndef PREFREP_CONFLICTS_CONFLICTS_H_
#define PREFREP_CONFLICTS_CONFLICTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/dynamic_bitset.h"
#include "model/instance.h"

namespace prefrep {

/// Returns true if facts f and g agree on every attribute in `attrs`
/// (1-based positions).  The facts must be of the same relation.
bool FactsAgreeOn(const Fact& f, const Fact& g, AttrSet attrs);

/// Returns true if {f, g} is a δ-conflict for the given FD.
bool IsDeltaConflict(const Fact& f, const Fact& g, const FD& fd);

/// Returns true if f and g are conflicting facts under the schema of the
/// instance (δ-conflict for some δ in ∆|rel).  Facts of different
/// relations never conflict (all constraints are FDs).
bool FactsConflict(const Instance& instance, FactId f, FactId g);

/// All conflicting pairs {f, g} (f < g) by the naive all-pairs scan —
/// the O(n²·|∆|) ablation baseline for the hash-bucketed ConflictGraph
/// construction (see bench_enumeration).  Results are sorted.
std::vector<std::pair<FactId, FactId>> AllConflictPairsNaive(
    const Instance& instance);

/// All conflicting pairs by the pre-columnar hash join (nested
/// node-based hash maps keyed by materialized projection vectors) —
/// preserved as the ablation baseline the perf-regression gate
/// (tools/perf_gate.py, bench/bench_hotpath.cc) measures the flat join
/// against and the metamorphic battery cross-checks it with.  Results
/// are sorted and deduplicated; must equal ConflictGraph::edges().
std::vector<std::pair<FactId, FactId>> AllConflictPairsHashedReference(
    const Instance& instance);

/// All conflicting pairs by the flat columnar join (open-addressing
/// table keyed by the seeded hash of the projected lhs columns, rows
/// compared in place — conflicts/projection.h): the production kernel,
/// also the core of the ConflictGraph constructor.  Results are sorted
/// and deduplicated; equal to both baselines above by construction.
std::vector<std::pair<FactId, FactId>> AllConflictPairsFlat(
    const Instance& instance);

/// The materialized conflict graph of an instance: for each fact, the
/// (sorted) list of facts it conflicts with, and the number of edges.
///
/// The graph can be quadratic in the number of facts (that is inherent);
/// algorithms that only need point queries should use FactsConflict or the
/// consistency checks in repair/subinstance_ops.h.
class ConflictGraph {
 public:
  /// Builds the conflict graph of `instance` by hashing facts on FD
  /// left-hand sides (no all-pairs scan across groups).
  explicit ConflictGraph(const Instance& instance);

  const Instance& instance() const { return *instance_; }

  size_t num_facts() const { return adjacency_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Facts conflicting with `f`, sorted ascending, no duplicates.
  const std::vector<FactId>& neighbors(FactId f) const {
    PREFREP_CHECK_MSG(f < adjacency_.size(), "fact id out of range");
    return adjacency_[f];
  }

  /// All conflicting pairs {f, g} with f < g, in lexicographic order,
  /// derived from the adjacency on each call.
  std::vector<std::pair<FactId, FactId>> edges() const;

  /// True if some fact of `sub` conflicts with `f`.
  bool ConflictsWithSet(FactId f, const DynamicBitset& sub) const;

  /// Serve-layer mutators (src/serve/session.cc): a resident session
  /// maintains the graph incrementally under fact edits instead of
  /// rebuilding it.  All three preserve the constructor's invariants —
  /// sorted deduplicated adjacency, exact edge count — so a mutated
  /// graph is indistinguishable from a rebuilt one.

  /// Grows the vertex set to `num_facts` (new vertices isolated).
  void ResizeUniverse(size_t num_facts);

  /// Adds the edges {f, g} for every g in `neighbors` (callers pass the
  /// exact δ-conflict set of a freshly inserted fact; pairs already
  /// present are rejected as a bug).
  void AddConflictEdges(FactId f, const std::vector<FactId>& neighbors);

  /// Removes every edge incident to `f` (fact deletion).  The vertex
  /// itself stays — ids are stable — it is simply isolated afterwards.
  void RemoveIncidentEdges(FactId f);

 private:
  const Instance* instance_;
  std::vector<std::vector<FactId>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace prefrep

#endif  // PREFREP_CONFLICTS_CONFLICTS_H_
