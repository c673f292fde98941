// Copyright (c) prefrep contributors.
// Priority relations (§2.3, §7).  A priority ≻ on an instance I is an
// acyclic binary relation on the facts of I; "f ≻ g" reads "f has higher
// priority than g".  In the ordinary setting (§2.3) priorities must relate
// only conflicting facts; in the cross-conflict setting (ccp, §7) any
// acyclic relation is allowed.

#ifndef PREFREP_PRIORITY_PRIORITY_H_
#define PREFREP_PRIORITY_PRIORITY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "model/instance.h"

namespace prefrep {

/// Which priority relations a checking problem admits.
enum class PriorityMode {
  /// §2.3: f ≻ g only for conflicting f, g (ordinary prioritizing
  /// instance).
  kConflictOnly,
  /// §7: any acyclic relation (cross-conflict-prioritizing instance).
  kCrossConflict,
};

/// An acyclic binary priority relation over the facts of one instance.
///
/// Edges are inserted with Add/Prefer; Validate() checks acyclicity and,
/// in kConflictOnly mode, that every edge joins conflicting facts.
/// Algorithms assume a validated relation.
class PriorityRelation {
 public:
  /// Creates an empty priority over the facts of `instance` (which must
  /// outlive this relation; fact ids must already be final).
  explicit PriorityRelation(const Instance* instance);

  PREFREP_DISALLOW_COPY(PriorityRelation);
  PriorityRelation(PriorityRelation&&) = default;
  PriorityRelation& operator=(PriorityRelation&&) = default;

  const Instance& instance() const { return *instance_; }

  /// Declares `higher ≻ lower`.  Duplicate edges are ignored;
  /// self-loops are rejected (they are cycles of length 1).
  Status Add(FactId higher, FactId lower);

  /// Declares a preference by fact labels.
  Status AddByLabels(std::string_view higher, std::string_view lower);

  /// Fatal-on-error convenience for literal construction.
  void MustAdd(FactId higher, FactId lower);

  /// Removes every edge incident to `f` (both orientations), preserving
  /// the relative order of the surviving edges — serialization order is
  /// part of the serve layer's byte-identical-rebuild contract.  Returns
  /// the number of edges removed.  Used when a fact is deleted.
  size_t RemoveEdgesTouching(FactId f);

  /// Grows the per-fact edge lists to cover facts appended to the
  /// instance after this relation was constructed (fact ids are stable,
  /// existing edges are unaffected).  Add() syncs automatically; callers
  /// reading Dominates()/DominatedBy() for fresh facts must sync first.
  void SyncUniverse();

  /// True iff f ≻ g was declared.
  bool Prefers(FactId f, FactId g) const {
    return !edge_index_.empty() &&
           edge_index_[FindEdgeSlot(EdgeKey(f, g))] != kEmptyEdgeSlot;
  }

  /// Facts g with f ≻ g.
  const std::vector<FactId>& Dominates(FactId f) const {
    PREFREP_CHECK(f < dominates_.size());
    return dominates_[f];
  }

  /// Facts g with g ≻ f.
  const std::vector<FactId>& DominatedBy(FactId f) const {
    PREFREP_CHECK(f < dominated_by_.size());
    return dominated_by_[f];
  }

  size_t num_edges() const { return edges_.size(); }
  const std::vector<std::pair<FactId, FactId>>& edges() const {
    return edges_;
  }

  /// True iff the relation has no cycle (required of every priority).
  bool IsAcyclic() const;

  /// Full validation: acyclicity and, in kConflictOnly mode, that every
  /// edge joins conflicting facts (which also forces same-relation edges).
  Status Validate(PriorityMode mode) const;

  /// True iff every edge joins conflicting facts.
  bool IsConflictBounded() const;

 private:
  /// An edge packed into one index word: higher in the upper half.
  static constexpr uint64_t EdgeKey(FactId higher, FactId lower) {
    return (uint64_t{higher} << 32) | lower;
  }
  /// The empty index slot, EdgeKey(kInvalidFactId, kInvalidFactId):
  /// no fact has that id, so no edge packs to it.
  static constexpr uint64_t kEmptyEdgeSlot = UINT64_MAX;

  /// The index slot holding `key`, or the empty slot ending its probe
  /// run.  Requires a non-empty index.
  size_t FindEdgeSlot(uint64_t key) const {
    const size_t mask = edge_index_.size() - 1;
    size_t i = HashMix64(key) & mask;
    while (edge_index_[i] != kEmptyEdgeSlot && edge_index_[i] != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Indexes the edge just appended to edges_, doubling the index first
  /// when it would pass 70% load.
  void IndexNewEdge(uint64_t key);

  /// Empties the index slot of `key` by shifting back the rest of its
  /// probe run, so the index never holds tombstones.
  void UnindexEdge(uint64_t key);

  const Instance* instance_;
  std::vector<std::pair<FactId, FactId>> edges_;
  // Open-addressing index of edges_ (power-of-two capacity, linear
  // probing, kEmptyEdgeSlot = empty): one flat array, so Prefers costs
  // a probe and releasing the relation one deallocation.
  std::vector<uint64_t> edge_index_;
  std::vector<std::vector<FactId>> dominates_;
  std::vector<std::vector<FactId>> dominated_by_;
};

// Pins the data members above: every one is pointer-aligned, so no
// padding can absorb a new member.  If this fires, decide whether
// ComputeBlockFingerprint must absorb the member or show it is derived
// (the fingerprint reads instance_ through the context; edge_index_,
// dominates_ and dominated_by_ are views of edges_), then update the
// sum.
static_assert(
    sizeof(PriorityRelation) ==
        sizeof(const Instance*) +
            sizeof(std::vector<std::pair<FactId, FactId>>) +
            sizeof(std::vector<uint64_t>) +
            2 * sizeof(std::vector<std::vector<FactId>>),
    "PriorityRelation gained or lost a data member: decide whether "
    "ComputeBlockFingerprint (cache/block_fingerprint.cc) must absorb it");

}  // namespace prefrep

#endif  // PREFREP_PRIORITY_PRIORITY_H_
