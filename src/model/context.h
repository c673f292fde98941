// Copyright (c) prefrep contributors.
// ProblemContext — the shared, lazily-built state of one prioritizing
// instance (I, ≻).  Every nontrivial algorithm needs some subset of
// {conflict graph, Theorem 3.1 classification, Theorem 7.1
// classification, block decomposition}; before this layer existed each
// consumer (checker, counting, construction, consistent answers)
// rebuilt them independently.  A ProblemContext builds each artifact at
// most once, on first use, and hands out const references, so a whole
// solving session — classify, check, count, enumerate, answer queries —
// pays for each construction a single time.
//
// Physically this file lives in model/ (it is the natural companion of
// model/problem.h), but architecturally it sits *above* conflicts/ and
// classify/: it may include their headers, never the other way around.
//
// Lazy construction is not synchronized; share a context across threads
// only after touching the artifacts you need (or calling Prime()).  The
// parallel dispatchers do exactly that: they Prime() the parent context
// and hand each worker a WorkerView(), which reads the shared artifacts
// and carries the worker's private governor.

#ifndef PREFREP_MODEL_CONTEXT_H_
#define PREFREP_MODEL_CONTEXT_H_

#include <memory>

#include "base/governor.h"
#include "classify/ccp_dichotomy.h"
#include "classify/dichotomy.h"
#include "conflicts/blocks.h"
#include "conflicts/conflicts.h"
#include "priority/priority.h"

namespace prefrep {

class BlockSolveCache;  // cache/block_cache.h (which sits above model/)

/// Shared lazily-cached artifacts of one prioritizing instance.
class ProblemContext {
 public:
  /// Binds `instance` and `priority` (both must outlive the context).
  /// Nothing is built until first use.
  ProblemContext(const Instance& instance, const PriorityRelation& priority);

  /// Adopts an externally-built conflict graph instead of building one
  /// (for callers that already paid for it).  `graph` must outlive the
  /// context and belong to the same instance as `priority`.
  ProblemContext(const ConflictGraph& graph, const PriorityRelation& priority);

  /// A fully-external artifact set for a *resident* context: the serve
  /// layer (src/serve/session.h) owns every artifact and maintains them
  /// incrementally across edits; the context only hands out references.
  /// All pointers must be non-null and outlive the context.
  struct ResidentArtifacts {
    const ConflictGraph* graph = nullptr;
    const SchemaClassification* classification = nullptr;
    const CcpSchemaClassification* ccp_classification = nullptr;
    const BlockDecomposition* blocks = nullptr;
  };

  /// Binds resident artifacts.  Nothing is ever built lazily through
  /// such a context; the owner re-creates it (it is a handful of
  /// pointers) whenever it swaps an artifact out.
  ProblemContext(const Instance& instance, const PriorityRelation& priority,
                 const ResidentArtifacts& artifacts);

  PREFREP_DISALLOW_COPY(ProblemContext);

  const Instance& instance() const { return *instance_; }
  const PriorityRelation& priority() const { return *priority_; }

  /// The conflict graph; built on first call.
  const ConflictGraph& conflict_graph() const;

  /// The Theorem 3.1 (ordinary-priority) schema classification.
  const SchemaClassification& classification() const;

  /// The Theorem 7.1 (cross-conflict-priority) schema classification.
  const CcpSchemaClassification& ccp_classification() const;

  /// The block decomposition of the instance under the priority
  /// (conflicts/blocks.h): no priority edge the solvers read leaves a
  /// block, so every question is a per-block fold.
  const BlockDecomposition& blocks() const;

  /// Eagerly builds every artifact (for sharing across threads).
  void Prime() const;

  /// The resource governor for calls made through this context.  The
  /// shared unlimited governor when none was installed, so callers can
  /// always checkpoint unconditionally.
  ResourceGovernor& governor() const {
    return governor_ != nullptr ? *governor_ : ResourceGovernor::Unlimited();
  }

  /// Installs a per-call budget (`nullptr` restores unlimited solving).
  /// The governor must outlive every solving call made through this
  /// context; it is not owned.
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }

  /// The block-solve cache, or nullptr when memoization is off (the
  /// default).  Per-block routines probe it through the cache-aware
  /// wrappers in repair/block_solver.h; everything stays correct (and
  /// byte-identical) with no cache installed.
  BlockSolveCache* block_cache() const { return block_cache_; }

  /// Installs a block-solve cache (`nullptr` disables memoization).
  /// Not owned; must outlive every solving call made through this
  /// context.  Worker views inherit the parent's cache, so parallel
  /// workers share one table.
  void set_block_cache(BlockSolveCache* cache) { block_cache_ = cache; }

  /// Number of worker threads per-block dispatchers may use.  Defaults
  /// to the hardware concurrency; 1 selects the exact serial code path
  /// (the parallel path is byte-identical for verdicts, counts and
  /// degradation reports — see docs/parallelism.md — but 1 skips the
  /// machinery entirely).
  size_t parallelism() const { return parallelism_; }

  /// Sets the worker count; 0 restores the hardware default.
  void set_parallelism(size_t parallelism);

  /// A shallow view for one parallel worker: shares this context's
  /// artifacts (priming them now if needed) but reads budgets from
  /// `governor` and never parallelizes further.  The parent context and
  /// `governor` must outlive the view.
  ProblemContext WorkerView(ResourceGovernor* governor) const;

 private:
  struct WorkerViewTag {};
  ProblemContext(WorkerViewTag, const ProblemContext& parent,
                 ResourceGovernor* governor);

  const Instance* instance_;
  const PriorityRelation* priority_;
  const ConflictGraph* external_graph_ = nullptr;
  const SchemaClassification* external_classification_ = nullptr;
  const CcpSchemaClassification* external_ccp_classification_ = nullptr;
  const BlockDecomposition* external_blocks_ = nullptr;
  ResourceGovernor* governor_ = nullptr;
  BlockSolveCache* block_cache_ = nullptr;
  size_t parallelism_;
  mutable std::unique_ptr<ConflictGraph> graph_;
  mutable std::unique_ptr<SchemaClassification> classification_;
  mutable std::unique_ptr<CcpSchemaClassification> ccp_classification_;
  mutable std::unique_ptr<BlockDecomposition> blocks_;
};

}  // namespace prefrep

#endif  // PREFREP_MODEL_CONTEXT_H_
