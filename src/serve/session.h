// Copyright (c) prefrep contributors.
// SessionContext — a long-lived, incrementally-maintained solving
// session over one prioritizing instance (I, ≻).  Every one-shot entry
// point rebuilds the conflict graph, classifications and block
// decomposition per call; a session keeps them *resident* and patches
// them under edits:
//
//   insert f  — δ-conflict neighbors of f come from the persistent
//               ConflictDeltaIndex buckets (O(|∆| · bucket), not
//               O(instance)).  No neighbors: f is free.  Otherwise f's
//               neighbor blocks and free neighbors merge into ONE block,
//               with every block a cross-conflict priority edge links
//               to a formerly free neighbor (conflicts/blocks.h).
//   delete f  — f is tombstoned (ids are stable), its incident conflict
//               and priority edges drop, and its old block re-splits
//               into the connected components of the remainder, along
//               conflict and priority edges (singletons become free
//               facts).
//   prefer    — a new edge between conflicting facts; the block is
//               unchanged as a fact set.
//
// An edit retires at most block membership: the session keeps no
// solved block state of its own.  The block-solve cache is the one
// store of it, keyed by canonical block fingerprint, so an edited block
// can never hit a stale entry; stale entries age out through the
// cache's LRU, and a block that an edit re-forms (a delete and a
// revival) hits its old entries.  Every untouched block's verdicts,
// counts, constructions and optimal sets survive.
//
// Correctness contract (enforced by tests/serve_test.cc and the
// PREFREP_AUDIT hook): after ANY edit sequence, every rendered answer
// is byte-identical to a from-scratch rebuild on the serialized live
// state — serial and parallel, cache on and off, governed and not.
// Three properties carry the proof: (1) serialization emits live facts
// in id order, so the rebuild's id compaction is order-preserving and
// block numbering / enumeration orders coincide; (2) every fact is
// labeled, and answers render through labels, never raw ids; (3) the
// incremental graph and decomposition equal their rebuilt counterparts
// as *data structures* (sorted adjacency, canonical block order), which
// the audit hook checks directly.

#ifndef PREFREP_SERVE_SESSION_H_
#define PREFREP_SERVE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cache/block_cache.h"
#include "conflicts/delta.h"
#include "io/ops_format.h"
#include "model/context.h"
#include "serve/mutable_instance.h"

namespace prefrep {

/// Session-wide knobs, fixed at creation (budget can be re-set per
/// request via the budget op).
struct SessionOptions {
  /// Worker threads for per-block dispatch (0 = hardware default).
  size_t threads = 0;
  /// Block-solve cache capacity in entries; 0 disables the cache.
  size_t cache_capacity = 0;
  /// Initial per-request budget (default: unlimited).
  ResourceBudget budget;
};

/// Monotone counters for the stats op / observability.
struct SessionStats {
  uint64_t edits = 0;
  uint64_t queries = 0;
  uint64_t blocks_retired = 0;
  /// Always 0: edits erase no cache entry (see the file comment).  Kept
  /// because the end-to-end benchmark (e2ebench/) still reads it.
  uint64_t cache_entries_erased = 0;
  /// Wall time spent answering queries (check/count/construct/cqa).
  /// `prefrepctl session --crossover` divides a rebuild-and-replay
  /// probe by this to surface when the resident path has degraded
  /// below a from-scratch rebuild (e.g. cache off under heavy edits).
  uint64_t query_micros = 0;
};

/// A resident prioritizing instance with incremental artifact
/// maintenance and a batched request API.  Thread-compatible, not
/// thread-safe: one session serializes its ops, so its resident state
/// carries no locks and no PREFREP_GUARDED_BY annotations.  Per-request
/// solving still fans out through the parallel per-block dispatcher,
/// whose shared structures (base/thread_pool.h, cache/block_cache.h)
/// ARE annotated — the session hands workers only the thread-safe
/// pieces (const ProblemContext views, the BlockSolveCache) and touches
/// everything else from the op-executing thread alone.
class SessionContext {
 public:
  /// Builds a session over a deep copy of `problem` (the argument is
  /// not retained).  The priority must be acyclic.  A cross-conflict
  /// priority is answered like any other, but the prefer op only adds
  /// edges between conflicting facts.
  static Result<std::unique_ptr<SessionContext>> Create(
      const PreferredRepairProblem& problem, SessionOptions options = {});

  PREFREP_DISALLOW_COPY(SessionContext);

  // ---- edits ------------------------------------------------------

  Result<std::string> Insert(std::string_view label,
                             std::string_view relation_name,
                             const std::vector<std::string>& constants);
  Result<std::string> Delete(std::string_view label);
  Result<std::string> Prefer(std::string_view higher_label,
                             std::string_view lower_label);

  // ---- batched request API ---------------------------------------

  /// Executes one parsed op (edit or query) and returns its rendered
  /// reply.  Query replies are the byte-identical-under-rebuild
  /// surface; edit and stats replies are informational.
  Result<std::string> Execute(const SessionOp& op);

  // ---- resident artifacts ----------------------------------------

  /// The resident ProblemContext (re-materialized lazily after edits).
  /// Valid until the next edit.  Shared by every existing prefrepctl
  /// subcommand so one CLI run pays for conflicts/blocks once.  Mutable
  /// so such callers can install per-call governors.
  ProblemContext& context();

  const Instance& instance() const { return facts_.instance(); }
  const PriorityRelation& priority() const { return *priority_; }
  const DynamicBitset& live() const { return facts_.live(); }
  PriorityMode mode() const { return mode_; }

  /// The current candidate J (live facts only; deletes drop members).
  DynamicBitset JSubinstance() const;

  /// Serializes the live state in the text-format grammar; parsing it
  /// reproduces this session's answers byte for byte.
  std::string SerializeLive();

  uint64_t generation() const { return facts_.generation(); }
  const SessionStats& stats() const { return stats_; }
  BlockSolveCache* cache() { return cache_.get(); }

  /// Always 0: the session stores no categoricity verdicts (see the
  /// file comment).  Kept because the end-to-end benchmark (e2ebench/)
  /// still reads categoricity_memo().hits() and .misses().
  struct RetiredMemoCounters {
    uint64_t hits() const { return 0; }
    uint64_t misses() const { return 0; }
  };
  RetiredMemoCounters categoricity_memo() const { return {}; }

  /// Replaces the per-request budget (budget op).
  void set_budget(const ResourceBudget& budget) { budget_ = budget; }

  /// The current per-request budget (snapshots persist it alongside the
  /// serialized instance — see persist/snapshot.h).
  const ResourceBudget& budget() const { return budget_; }

 private:
  SessionContext(const PreferredRepairProblem& problem,
                 SessionOptions options);

  // Re-materializes the BlockDecomposition view + ProblemContext after
  // edits.  Cheap when nothing changed.
  void EnsureFresh();

  // Retires block `key`: drops its membership record.  block_key_of_
  // entries are overwritten by the caller (merge/split install or
  // free/tombstone marking).
  void RetireBlock(FactId key);

  // Installs a block over `members` (sorted ascending, size ≥ 2); the
  // key is members.front().
  void InstallBlock(std::vector<FactId> members);

  // True iff `to` is reachable from `from` along declared ≻-edges
  // (cycle guard for Prefer).
  bool Reaches(FactId from, FactId to) const;

  // Query execution (EnsureFresh + per-request governor).
  Result<std::string> RunCheck(AnswerSemantics semantics);
  Result<std::string> RunCount(AnswerSemantics semantics);
  Result<std::string> RunConstruct();
  Result<std::string> RunCqa(AnswerSemantics semantics,
                             const std::string& query_text);
  std::string RenderStats();

#if PREFREP_AUDIT_ENABLED
  // Compares the incremental graph/blocks/priority against a
  // from-scratch rebuild of the serialized live state, modulo the
  // order-preserving id compaction.  Fatal on divergence.
  void AuditAgainstRebuild();
#endif

  MutableInstance facts_;
  std::unique_ptr<PriorityRelation> priority_;
  PriorityMode mode_ = PriorityMode::kConflictOnly;
  ConflictDeltaIndex conflict_index_;
  std::unique_ptr<ConflictGraph> graph_;

  // Incremental block state.  A block's key is its smallest fact id;
  // std::map iteration then yields the canonical block order for free.
  struct BlockMembers {
    RelId rel = kInvalidRelId;
    std::vector<FactId> fact_list;  // sorted ascending
  };
  std::map<FactId, BlockMembers> block_members_;
  std::vector<FactId> block_key_of_;  // kInvalidFactId: free or dead
  DynamicBitset free_;                // live facts with no conflicts

  // Materialized view (rebuilt lazily by EnsureFresh).
  bool view_dirty_ = true;
  std::unique_ptr<BlockDecomposition> blocks_view_;
  std::unique_ptr<ProblemContext> ctx_;

  // Schema-level classifications never change (the schema is fixed).
  SchemaClassification classification_;
  CcpSchemaClassification ccp_classification_;

  std::unique_ptr<BlockSolveCache> cache_;

  std::set<FactId> j_;  // ordered: renders deterministically
  SessionOptions options_;
  ResourceBudget budget_;
  SessionStats stats_;
};

}  // namespace prefrep

#endif  // PREFREP_SERVE_SESSION_H_
