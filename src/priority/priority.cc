#include "priority/priority.h"

#include <algorithm>

#include "conflicts/conflicts.h"

namespace prefrep {

PriorityRelation::PriorityRelation(const Instance* instance)
    : instance_(instance) {
  PREFREP_CHECK(instance != nullptr);
  dominates_.resize(instance->num_facts());
  dominated_by_.resize(instance->num_facts());
}

void PriorityRelation::SyncUniverse() {
  if (dominates_.size() < instance_->num_facts()) {
    dominates_.resize(instance_->num_facts());
    dominated_by_.resize(instance_->num_facts());
  }
}

size_t PriorityRelation::RemoveEdgesTouching(FactId f) {
  size_t removed = 0;
  std::vector<std::pair<FactId, FactId>> kept;
  kept.reserve(edges_.size());
  for (const auto& edge : edges_) {
    if (edge.first != f && edge.second != f) {
      kept.push_back(edge);
      continue;
    }
    ++removed;
    UnindexEdge(EdgeKey(edge.first, edge.second));
    // Unlink from the endpoint that survives; f's own lists are cleared
    // wholesale below.  std::remove keeps the survivors' order.
    if (edge.first == f) {
      std::vector<FactId>& v = dominated_by_[edge.second];
      v.erase(std::remove(v.begin(), v.end(), f), v.end());
    } else {
      std::vector<FactId>& v = dominates_[edge.first];
      v.erase(std::remove(v.begin(), v.end(), f), v.end());
    }
  }
  edges_ = std::move(kept);
  if (f < dominates_.size()) {
    dominates_[f].clear();
    dominated_by_[f].clear();
  }
  return removed;
}

void PriorityRelation::IndexNewEdge(uint64_t key) {
  if (edges_.size() * 10 > edge_index_.size() * 7) {
    // Rebuild at twice the capacity; the loop indexes `key` too.
    edge_index_.assign(std::max<size_t>(16, edge_index_.size() * 2),
                       kEmptyEdgeSlot);
    for (const auto& [higher, lower] : edges_) {
      const uint64_t k = EdgeKey(higher, lower);
      edge_index_[FindEdgeSlot(k)] = k;
    }
    return;
  }
  edge_index_[FindEdgeSlot(key)] = key;
}

void PriorityRelation::UnindexEdge(uint64_t key) {
  const size_t mask = edge_index_.size() - 1;
  size_t hole = FindEdgeSlot(key);
  PREFREP_DCHECK(edge_index_[hole] == key);
  for (size_t i = (hole + 1) & mask; edge_index_[i] != kEmptyEdgeSlot;
       i = (i + 1) & mask) {
    // The entry at i may fill the hole unless its home slot lies
    // cyclically in (hole, i].
    const size_t home = HashMix64(edge_index_[i]) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      edge_index_[hole] = edge_index_[i];
      hole = i;
    }
  }
  edge_index_[hole] = kEmptyEdgeSlot;
}

Status PriorityRelation::Add(FactId higher, FactId lower) {
  if (higher >= instance_->num_facts() || lower >= instance_->num_facts()) {
    return Status::OutOfRange("priority edge references unknown fact");
  }
  SyncUniverse();
  if (higher == lower) {
    return Status::InvalidArgument(
        "priority self-loop on fact " + instance_->FactToString(higher) +
        " (a cycle of length 1)");
  }
  if (Prefers(higher, lower)) {
    return Status::OK();  // duplicate edge, no-op
  }
  edges_.emplace_back(higher, lower);
  IndexNewEdge(EdgeKey(higher, lower));
  dominates_[higher].push_back(lower);
  dominated_by_[lower].push_back(higher);
  return Status::OK();
}

Status PriorityRelation::AddByLabels(std::string_view higher,
                                     std::string_view lower) {
  FactId h = instance_->FindLabel(higher);
  if (h == kInvalidFactId) {
    return Status::NotFound("unknown fact label '" + std::string(higher) +
                            "'");
  }
  FactId l = instance_->FindLabel(lower);
  if (l == kInvalidFactId) {
    return Status::NotFound("unknown fact label '" + std::string(lower) +
                            "'");
  }
  return Add(h, l);
}

void PriorityRelation::MustAdd(FactId higher, FactId lower) {
  Status s = Add(higher, lower);
  PREFREP_CHECK_MSG(s.ok(), "PriorityRelation::MustAdd failed");
}

bool PriorityRelation::IsAcyclic() const {
  // Kahn's algorithm on the ≻-digraph (edge f → g for f ≻ g).
  size_t n = instance_->num_facts();
  std::vector<uint32_t> indegree(n, 0);
  for (const auto& [higher, lower] : edges_) {
    (void)higher;
    ++indegree[lower];
  }
  std::vector<FactId> queue;
  queue.reserve(n);
  for (FactId f = 0; f < n; ++f) {
    if (indegree[f] == 0) {
      queue.push_back(f);
    }
  }
  size_t processed = 0;
  while (!queue.empty()) {
    FactId f = queue.back();
    queue.pop_back();
    ++processed;
    if (f >= dominates_.size()) {
      continue;  // fact appended after construction, no edges yet
    }
    for (FactId g : dominates_[f]) {
      if (--indegree[g] == 0) {
        queue.push_back(g);
      }
    }
  }
  return processed == n;
}

bool PriorityRelation::IsConflictBounded() const {
  for (const auto& [higher, lower] : edges_) {
    if (!FactsConflict(*instance_, higher, lower)) {
      return false;
    }
  }
  return true;
}

Status PriorityRelation::Validate(PriorityMode mode) const {
  if (!IsAcyclic()) {
    return Status::InvalidArgument("priority relation has a cycle");
  }
  if (mode == PriorityMode::kConflictOnly && !IsConflictBounded()) {
    return Status::InvalidArgument(
        "priority relation relates non-conflicting facts; use "
        "PriorityMode::kCrossConflict for ccp-instances (§7)");
  }
  return Status::OK();
}

}  // namespace prefrep
