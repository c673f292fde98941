#include "model/context.h"

#include "base/thread_pool.h"

namespace prefrep {

ProblemContext::ProblemContext(const Instance& instance,
                               const PriorityRelation& priority)
    : instance_(&instance),
      priority_(&priority),
      parallelism_(ThreadPool::HardwareConcurrency()) {
  PREFREP_CHECK_MSG(&priority.instance() == &instance,
                    "priority relation is over a different instance");
}

ProblemContext::ProblemContext(const ConflictGraph& graph,
                               const PriorityRelation& priority)
    : instance_(&graph.instance()),
      priority_(&priority),
      external_graph_(&graph),
      parallelism_(ThreadPool::HardwareConcurrency()) {
  PREFREP_CHECK_MSG(&priority.instance() == &graph.instance(),
                    "priority relation is over a different instance");
}

ProblemContext::ProblemContext(const Instance& instance,
                               const PriorityRelation& priority,
                               const ResidentArtifacts& artifacts)
    : instance_(&instance),
      priority_(&priority),
      external_graph_(artifacts.graph),
      external_classification_(artifacts.classification),
      external_ccp_classification_(artifacts.ccp_classification),
      external_blocks_(artifacts.blocks),
      parallelism_(ThreadPool::HardwareConcurrency()) {
  PREFREP_CHECK_MSG(&priority.instance() == &instance,
                    "priority relation is over a different instance");
  PREFREP_CHECK_MSG(
      artifacts.graph != nullptr && artifacts.classification != nullptr &&
          artifacts.ccp_classification != nullptr &&
          artifacts.blocks != nullptr,
      "resident contexts must supply every artifact");
}

ProblemContext::ProblemContext(WorkerViewTag, const ProblemContext& parent,
                               ResourceGovernor* governor)
    : instance_(parent.instance_),
      priority_(parent.priority_),
      external_graph_(&parent.conflict_graph()),
      external_classification_(&parent.classification()),
      external_ccp_classification_(&parent.ccp_classification()),
      external_blocks_(&parent.blocks()),
      governor_(governor),
      // Workers share the parent's cache: one worker's solve becomes
      // every sibling's hit, and the merge keeps outputs byte-identical
      // either way.
      block_cache_(parent.block_cache_),
      // A worker never fans out again: nested parallelism would
      // oversubscribe the pool and break the serial-order replay.
      parallelism_(1) {}

void ProblemContext::set_parallelism(size_t parallelism) {
  parallelism_ =
      parallelism == 0 ? ThreadPool::HardwareConcurrency() : parallelism;
}

ProblemContext ProblemContext::WorkerView(ResourceGovernor* governor) const {
  Prime();
  return ProblemContext(WorkerViewTag{}, *this, governor);
}

const ConflictGraph& ProblemContext::conflict_graph() const {
  if (external_graph_ != nullptr) {
    return *external_graph_;
  }
  if (graph_ == nullptr) {
    graph_ = std::make_unique<ConflictGraph>(*instance_);
  }
  return *graph_;
}

const SchemaClassification& ProblemContext::classification() const {
  if (external_classification_ != nullptr) {
    return *external_classification_;
  }
  if (classification_ == nullptr) {
    classification_ =
        std::make_unique<SchemaClassification>(ClassifySchema(
            instance_->schema()));
  }
  return *classification_;
}

const CcpSchemaClassification& ProblemContext::ccp_classification() const {
  if (external_ccp_classification_ != nullptr) {
    return *external_ccp_classification_;
  }
  if (ccp_classification_ == nullptr) {
    ccp_classification_ = std::make_unique<CcpSchemaClassification>(
        ClassifyCcpSchema(instance_->schema()));
  }
  return *ccp_classification_;
}

const BlockDecomposition& ProblemContext::blocks() const {
  if (external_blocks_ != nullptr) {
    return *external_blocks_;
  }
  if (blocks_ == nullptr) {
    blocks_ =
        std::make_unique<BlockDecomposition>(conflict_graph(), *priority_);
  }
  return *blocks_;
}

void ProblemContext::Prime() const {
  conflict_graph();
  classification();
  ccp_classification();
  blocks();
}

}  // namespace prefrep
