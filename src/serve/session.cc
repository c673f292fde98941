#include "serve/session.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "io/text_format.h"
#include "query/conjunctive_query.h"
#include "query/consistent_answers.h"
#include "repair/block_solver.h"
#include "repair/construct.h"
#include "repair/counting.h"

namespace prefrep {

Result<std::unique_ptr<SessionContext>> SessionContext::Create(
    const PreferredRepairProblem& problem, SessionOptions options) {
  PREFREP_CHECK_MSG(problem.schema != nullptr && problem.instance != nullptr &&
                        problem.priority != nullptr,
                    "session needs a complete problem (call InitPriority)");
  PriorityMode mode;
  if (problem.priority->Validate(PriorityMode::kConflictOnly).ok()) {
    mode = PriorityMode::kConflictOnly;
  } else {
    Status ccp = problem.priority->Validate(PriorityMode::kCrossConflict);
    if (!ccp.ok()) {
      return ccp;
    }
    mode = PriorityMode::kCrossConflict;
  }
  std::unique_ptr<SessionContext> session(
      new SessionContext(problem, options));
  session->mode_ = mode;
  return session;
}

SessionContext::SessionContext(const PreferredRepairProblem& problem,
                               SessionOptions options)
    : facts_(problem),
      conflict_index_(facts_.instance()),
      options_(options),
      budget_(options.budget) {
  // Rebuild the priority over the session's own instance copy in the
  // original declaration order — edges() order is serialization order,
  // which the rebuild contract depends on.
  priority_ = std::make_unique<PriorityRelation>(&facts_.instance());
  for (const auto& [higher, lower] : problem.priority->edges()) {
    priority_->MustAdd(higher, lower);
  }
  classification_ = ClassifySchema(facts_.schema());
  ccp_classification_ = ClassifyCcpSchema(facts_.schema());
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<BlockSolveCache>(options_.cache_capacity);
  }
  graph_ = std::make_unique<ConflictGraph>(facts_.instance());
  const size_t n = facts_.universe_size();
  block_key_of_.assign(n, kInvalidFactId);
  for (FactId f = 0; f < n; ++f) {
    // The graph constructor already found all edges; the index just
    // needs every initial fact in its buckets.
    conflict_index_.InsertAndCollect(f);
  }
  const BlockDecomposition initial(*graph_, *priority_);
  free_ = initial.free_facts();
  for (const Block& b : initial.blocks()) {
    InstallBlock(b.fact_list);
  }
  if (problem.j.size() > 0) {
    problem.j.ForEach([&](size_t f) { j_.insert(static_cast<FactId>(f)); });
  }
}

void SessionContext::InstallBlock(std::vector<FactId> members) {
  PREFREP_CHECK_MSG(members.size() >= 2, "a block has at least two facts");
  const FactId key = members.front();
  BlockMembers bm;
  bm.rel = facts_.instance().fact(key).rel;
  for (FactId m : members) {
    block_key_of_[m] = key;
  }
  bm.fact_list = std::move(members);
  const bool inserted = block_members_.emplace(key, std::move(bm)).second;
  PREFREP_CHECK_MSG(inserted, "block key already resident");
  view_dirty_ = true;
}

void SessionContext::RetireBlock(FactId key) {
  block_members_.erase(key);
  ++stats_.blocks_retired;
  view_dirty_ = true;
}

Result<std::string> SessionContext::Insert(
    std::string_view label, std::string_view relation_name,
    const std::vector<std::string>& constants) {
  Result<MutableInstance::InsertOutcome> outcome =
      facts_.Insert(relation_name, constants, label);
  if (!outcome.ok()) {
    return outcome.status();
  }
  if (outcome->already_live) {
    return "ok " + std::string(label) + " unchanged";
  }
  ++stats_.edits;
  view_dirty_ = true;
  const FactId f = outcome->id;
  const size_t n = facts_.universe_size();
  graph_->ResizeUniverse(n);
  free_.Resize(n);
  if (block_key_of_.size() < n) {
    block_key_of_.resize(n, kInvalidFactId);
  }
  priority_->SyncUniverse();
  const std::vector<FactId> neighbors = conflict_index_.InsertAndCollect(f);
  graph_->AddConflictEdges(f, neighbors);
  const char* verb = outcome->revived ? "revived" : "inserted";
  if (neighbors.empty()) {
    free_.set(f);
    return "ok " + std::string(verb) + " " + std::string(label) + " (free)";
  }
  // Merge: f, its free neighbors, and every block one edge away from
  // them become one block (they are all connected through f now).  The
  // edges are those ForEachBlockLink follows: f's conflicts, and the
  // priority edges of a formerly free neighbor, which count now that it
  // has a conflict.
  std::vector<FactId> members{f};
  for (FactId g : neighbors) {
    if (free_.test(g)) {
      free_.reset(g);
      members.push_back(g);
    }
  }
  std::set<FactId> touched_keys;
  for (FactId m : members) {
    ForEachBlockLink(*graph_, *priority_, m, [&](FactId g) {
      if (block_key_of_[g] != kInvalidFactId) {
        touched_keys.insert(block_key_of_[g]);
      }
    });
  }
  for (FactId key : touched_keys) {
    auto it = block_members_.find(key);
    PREFREP_CHECK_MSG(it != block_members_.end(), "dangling block key");
    members.insert(members.end(), it->second.fact_list.begin(),
                   it->second.fact_list.end());
    RetireBlock(key);
  }
  std::sort(members.begin(), members.end());
  const size_t block_size = members.size();
  InstallBlock(std::move(members));
  return "ok " + std::string(verb) + " " + std::string(label) +
         " (block of " + std::to_string(block_size) + ")";
}

Result<std::string> SessionContext::Delete(std::string_view label) {
  Result<FactId> id = facts_.Tombstone(label);
  if (!id.ok()) {
    return id.status();
  }
  ++stats_.edits;
  view_dirty_ = true;
  const FactId f = *id;
  j_.erase(f);
  priority_->SyncUniverse();
  priority_->RemoveEdgesTouching(f);
  const std::vector<FactId> neighbors = graph_->neighbors(f);
  graph_->RemoveIncidentEdges(f);
  conflict_index_.Erase(f);
  if (free_.test(f)) {
    free_.reset(f);
    return "ok deleted " + std::string(label);
  }
  const FactId key = block_key_of_[f];
  PREFREP_CHECK_MSG(key != kInvalidFactId, "live non-free fact has a block");
  auto it = block_members_.find(key);
  PREFREP_CHECK_MSG(it != block_members_.end(), "dangling block key");
  const std::vector<FactId> members = it->second.fact_list;
  RetireBlock(key);
  for (FactId m : members) {
    block_key_of_[m] = kInvalidFactId;
  }
  // Re-split: connected components of the old block minus f, along the
  // edges ForEachBlockLink follows.  Edges of the survivors still point
  // only inside the old block (or at free facts, which it skips), so a
  // BFS over the live adjacency is confined to `members` automatically;
  // a survivor left without conflicts links to nothing and turns free.
  std::unordered_set<FactId> visited{f};
  size_t split_blocks = 0;
  for (FactId seed : members) {
    if (visited.count(seed) > 0) {
      continue;
    }
    visited.insert(seed);
    std::vector<FactId> component{seed};
    std::vector<FactId> stack{seed};
    while (!stack.empty()) {
      FactId u = stack.back();
      stack.pop_back();
      ForEachBlockLink(*graph_, *priority_, u, [&](FactId v) {
        if (visited.insert(v).second) {
          component.push_back(v);
          stack.push_back(v);
        }
      });
    }
    if (component.size() == 1) {
      free_.set(seed);
    } else {
      std::sort(component.begin(), component.end());
      InstallBlock(std::move(component));
      ++split_blocks;
    }
  }
  return "ok deleted " + std::string(label) + " (" +
         std::to_string(split_blocks) + " block(s) remain of its block)";
}

bool SessionContext::Reaches(FactId from, FactId to) const {
  if (from == to) {
    return true;
  }
  std::vector<FactId> stack{from};
  std::unordered_set<FactId> seen{from};
  while (!stack.empty()) {
    FactId u = stack.back();
    stack.pop_back();
    for (FactId v : priority_->Dominates(u)) {
      if (v == to) {
        return true;
      }
      if (seen.insert(v).second) {
        stack.push_back(v);
      }
    }
  }
  return false;
}

Result<std::string> SessionContext::Prefer(std::string_view higher_label,
                                           std::string_view lower_label) {
  Result<FactId> higher = facts_.ResolveLive(higher_label);
  if (!higher.ok()) {
    return higher.status();
  }
  Result<FactId> lower = facts_.ResolveLive(lower_label);
  if (!lower.ok()) {
    return lower.status();
  }
  if (*higher == *lower) {
    return Status::InvalidArgument(
        "a fact cannot be preferred over itself");
  }
  if (!FactsConflict(facts_.instance(), *higher, *lower)) {
    return Status::FailedPrecondition(
        "prefer requires conflicting facts ('" + std::string(higher_label) +
        "' and '" + std::string(lower_label) + "' do not conflict)");
  }
  if (priority_->Prefers(*higher, *lower)) {
    return "ok " + std::string(higher_label) + " > " +
           std::string(lower_label) + " (already preferred)";
  }
  priority_->SyncUniverse();
  if (Reaches(*lower, *higher)) {
    return Status::InvalidArgument(
        "prefer " + std::string(higher_label) + " > " +
        std::string(lower_label) + " would create a priority cycle");
  }
  priority_->MustAdd(*higher, *lower);
  ++stats_.edits;
  // The block's fact set is unchanged (no view rebuild), and its cache
  // entries need nothing: the new edge changes the block's fingerprint.
  return "ok " + std::string(higher_label) + " > " +
         std::string(lower_label);
}

DynamicBitset SessionContext::JSubinstance() const {
  DynamicBitset j(facts_.universe_size());
  for (FactId f : j_) {
    j.set(f);
  }
  return j;
}

std::string SessionContext::SerializeLive() {
  const DynamicBitset j = JSubinstance();
  return facts_.SerializeLive(priority_.get(), &j);
}

void SessionContext::EnsureFresh() {
  if (view_dirty_) {
    const size_t n = facts_.universe_size();
    std::vector<Block> blocks;
    blocks.reserve(block_members_.size());
    std::vector<size_t> block_of(n, BlockDecomposition::kNoBlock);
    for (const auto& [key, bm] : block_members_) {
      Block b;
      // Binding every Block field makes a new one a compile error here:
      // derive it from the members below (or show it needs no delta
      // handling), and decide in ComputeBlockFingerprint
      // (cache/block_fingerprint.cc) whether the cache key absorbs it.
      auto& [id, rel, fact_list] = b;
      id = blocks.size();
      rel = bm.rel;
      fact_list = bm.fact_list;
      for (FactId m : fact_list) {
        block_of[m] = id;
      }
      blocks.push_back(std::move(b));
    }
    DynamicBitset free_copy = free_;
    blocks_view_ = std::make_unique<BlockDecomposition>(
        std::move(blocks), std::move(free_copy), std::move(block_of),
        facts_.schema().num_relations());
    ProblemContext::ResidentArtifacts artifacts;
    artifacts.graph = graph_.get();
    artifacts.classification = &classification_;
    artifacts.ccp_classification = &ccp_classification_;
    artifacts.blocks = blocks_view_.get();
    ctx_ = std::make_unique<ProblemContext>(facts_.instance(), *priority_,
                                            artifacts);
    ctx_->set_parallelism(options_.threads);
    ctx_->set_block_cache(cache_.get());
    view_dirty_ = false;
#if PREFREP_AUDIT_ENABLED
    AuditAgainstRebuild();
#endif
  }
}

ProblemContext& SessionContext::context() {
  EnsureFresh();
  return *ctx_;
}

#if PREFREP_AUDIT_ENABLED
void SessionContext::AuditAgainstRebuild() {
  Result<PreferredRepairProblem> rebuilt = ParseProblemText(SerializeLive());
  PREFREP_CHECK_MSG(rebuilt.ok(), "serialized live state must re-parse");
  const ConflictGraph rebuilt_graph(*rebuilt->instance);
  const BlockDecomposition rebuilt_blocks(rebuilt_graph, *rebuilt->priority);
  PREFREP_CHECK_MSG(rebuilt_graph.num_edges() == graph_->num_edges(),
                    "incremental conflict edges diverged from rebuild");
  PREFREP_CHECK_MSG(
      rebuilt_blocks.num_blocks() == blocks_view_->num_blocks(),
      "incremental block count diverged from rebuild");
  PREFREP_CHECK_MSG(
      rebuilt_blocks.free_facts().count() ==
          blocks_view_->free_facts().count(),
      "incremental free-fact count diverged from rebuild");
  // Id compaction is order-preserving, so block i of the session must
  // hold exactly the labels of block i of the rebuild, position by
  // position.
  for (size_t i = 0; i < rebuilt_blocks.num_blocks(); ++i) {
    const Block& mine = blocks_view_->block(i);
    const Block& theirs = rebuilt_blocks.block(i);
    PREFREP_CHECK_MSG(mine.size() == theirs.size(),
                      "incremental block size diverged from rebuild");
    for (size_t k = 0; k < mine.fact_list.size(); ++k) {
      PREFREP_CHECK_MSG(
          facts_.instance().label(mine.fact_list[k]) ==
              rebuilt->instance->label(theirs.fact_list[k]),
          "incremental block membership diverged from rebuild");
    }
  }
  PREFREP_CHECK_MSG(
      rebuilt->priority->num_edges() == priority_->num_edges(),
      "incremental priority edges diverged from rebuild");
  const auto& mine_edges = priority_->edges();
  const auto& their_edges = rebuilt->priority->edges();
  for (size_t i = 0; i < mine_edges.size(); ++i) {
    PREFREP_CHECK_MSG(
        facts_.instance().label(mine_edges[i].first) ==
                rebuilt->instance->label(their_edges[i].first) &&
            facts_.instance().label(mine_edges[i].second) ==
                rebuilt->instance->label(their_edges[i].second),
        "incremental priority edge order diverged from rebuild");
  }
}
#endif

Result<std::string> SessionContext::RunCheck(AnswerSemantics semantics) {
  EnsureFresh();
  if (semantics == AnswerSemantics::kCompletion &&
      !priority_->IsConflictBounded()) {
    return Status::FailedPrecondition(
        "completion semantics requires a conflict-bounded priority");
  }
  if (semantics == AnswerSemantics::kAllRepairs) {
    return Status::InvalidArgument("check does not take 'repairs'");
  }
  const DynamicBitset j = JSubinstance();
  ResourceGovernor governor(budget_);
  if (!budget_.Unlimited()) {
    ctx_->set_governor(&governor);
  }
  DegradationReport report;
  const CheckResult result = CheckOptimalByBlocks(
      *ctx_, j, ToRepairSemantics(semantics), mode_, nullptr, &report);
  ctx_->set_governor(nullptr);
  std::string out = std::string("check ") + SemanticsName(semantics) + ": ";
  switch (result.verdict) {
    case CheckResult::Verdict::kYes:
      out += "optimal";
      break;
    case CheckResult::Verdict::kNo:
      out += "not optimal";
      break;
    case CheckResult::Verdict::kUnknown:
      out += "unknown";
      break;
  }
  if (result.witness.has_value()) {
    out += "\nwitness: " +
           facts_.instance().SubinstanceToString(result.witness->improvement);
    if (!result.witness->explanation.empty()) {
      out += "\nbecause: " + result.witness->explanation;
    }
  }
  if (!result.known() && !result.unknown_reason.empty()) {
    out += "\nreason: " + result.unknown_reason;
  }
  if (report.Degraded()) {
    out += "\n" + report.ToString();
  }
  return out;
}

Result<std::string> SessionContext::RunCount(AnswerSemantics semantics) {
  EnsureFresh();
  if (semantics == AnswerSemantics::kCompletion &&
      !priority_->IsConflictBounded()) {
    return Status::FailedPrecondition(
        "completion semantics requires a conflict-bounded priority");
  }
  ResourceGovernor governor(budget_);
  if (!budget_.Unlimited()) {
    ctx_->set_governor(&governor);
  }
  const BoundedCount count =
      CountOptimalRepairsBounded(*ctx_, ToRepairSemantics(semantics));
  ctx_->set_governor(nullptr);
  std::string out = std::string("count ") + SemanticsName(semantics) + ": ";
  if (!count.exact) {
    out += ">= ";
  }
  out += std::to_string(count.lower_bound);
  if (count.saturated) {
    out += " (saturated)";
  }
  if (!count.exact) {
    out += " (" + std::to_string(count.unknown_blocks) +
           " block(s) abandoned)";
  }
  return out;
}

Result<std::string> SessionContext::RunConstruct() {
  EnsureFresh();
  if (!priority_->IsConflictBounded()) {
    return Status::FailedPrecondition(
        "construct requires a conflict-bounded priority");
  }
  ResourceGovernor governor(budget_);
  if (!budget_.Unlimited()) {
    ctx_->set_governor(&governor);
  }
  Result<DynamicBitset> repair = TryConstructGloballyOptimalRepair(*ctx_);
  ctx_->set_governor(nullptr);
  if (!repair.ok()) {
    return "construct: unknown (" + repair.status().message() + ")";
  }
  return "repair: " + facts_.instance().SubinstanceToString(*repair);
}

Result<std::string> SessionContext::RunCqa(AnswerSemantics semantics,
                                           const std::string& query_text) {
  EnsureFresh();
  if (semantics == AnswerSemantics::kCompletion &&
      !priority_->IsConflictBounded()) {
    return Status::FailedPrecondition(
        "completion semantics requires a conflict-bounded priority");
  }
  Result<ConjunctiveQuery> query = ConjunctiveQuery::Parse(query_text);
  if (!query.ok()) {
    return query.status();
  }
  ResourceGovernor governor(budget_);
  if (!budget_.Unlimited()) {
    ctx_->set_governor(&governor);
  }
  // The path taken is a deterministic function of the live state and
  // budget (the block-solve cache changes cost, never answers), so the
  // path line below is part of the byte-identical-under-rebuild reply
  // surface.
  CqaPath path = CqaPath::kEnumeration;
  CqaOptions cqa_options;
  cqa_options.path = &path;
  std::string out = std::string("cqa ") + SemanticsName(semantics) + ": ";
  if (query->IsBoolean()) {
    const Trilean certain =
        CertainlyTrueBounded(*ctx_, *query, semantics, cqa_options);
    out += TrileanName(certain);
    if (certain == Trilean::kUnknown) {
      out += " (" + CqaUnknownStatus(governor).message() + ")";
    }
  } else {
    Result<std::vector<ConjunctiveQuery::AnswerTuple>> answers =
        ConsistentAnswersBounded(*ctx_, *query, semantics, cqa_options);
    if (!answers.ok()) {
      out += "unknown (" + answers.status().message() + ")";
    } else {
      out += std::to_string(answers->size()) + " answer(s)";
      for (const ConjunctiveQuery::AnswerTuple& tuple : *answers) {
        out += "\n  (";
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (i > 0) {
            out += ", ";
          }
          out += tuple[i];
        }
        out += ")";
      }
    }
  }
  out += "\npath: ";
  out += CqaPathName(path);
  ctx_->set_governor(nullptr);
  return out;
}

std::string SessionContext::RenderStats() {
  // Informational only — cache and retirement counters depend on the
  // session's edit history, so stats is exempt from the byte-identical
  // rebuild contract (and the differential battery skips it).
  return "stats: generation=" + std::to_string(facts_.generation()) +
         " live=" + std::to_string(facts_.num_live()) +
         " blocks=" + std::to_string(block_members_.size()) +
         " free=" + std::to_string(free_.count()) +
         " edits=" + std::to_string(stats_.edits) +
         " queries=" + std::to_string(stats_.queries) +
         " blocks-retired=" + std::to_string(stats_.blocks_retired) +
         " query-micros=" + std::to_string(stats_.query_micros) +
         " cache-capacity=" + std::to_string(options_.cache_capacity);
}

Result<std::string> SessionContext::Execute(const SessionOp& op) {
  switch (op.kind) {
    case SessionOp::Kind::kInsert:
      return Insert(op.label, op.relation, op.constants);
    case SessionOp::Kind::kDelete:
      return Delete(op.label);
    case SessionOp::Kind::kPrefer: {
      std::string out;
      for (size_t i = 0; i + 1 < op.chain.size(); ++i) {
        Result<std::string> one = Prefer(op.chain[i], op.chain[i + 1]);
        if (!one.ok()) {
          // Earlier pairs of the chain stand (like the text format,
          // which adds chain pairs one by one).
          return one.status();
        }
        if (!out.empty()) {
          out += "\n";
        }
        out += *one;
      }
      return out;
    }
    case SessionOp::Kind::kJSet:
    case SessionOp::Kind::kJAdd:
    case SessionOp::Kind::kJDel: {
      std::vector<FactId> ids;
      ids.reserve(op.labels.size());
      for (const std::string& label : op.labels) {
        Result<FactId> id = facts_.ResolveLive(label);
        if (!id.ok()) {
          return id.status();
        }
        ids.push_back(*id);
      }
      if (op.kind == SessionOp::Kind::kJSet) {
        j_.clear();
      }
      for (FactId id : ids) {
        if (op.kind == SessionOp::Kind::kJDel) {
          j_.erase(id);
        } else {
          j_.insert(id);
        }
      }
      return "ok j = " +
             facts_.instance().SubinstanceToString(JSubinstance());
    }
    case SessionOp::Kind::kBudget:
      set_budget(op.budget);
      return "ok " + SessionOpToString(op);
    case SessionOp::Kind::kCheck:
    case SessionOp::Kind::kCount:
    case SessionOp::Kind::kConstruct:
    case SessionOp::Kind::kCqa: {
      ++stats_.queries;
      const auto start = std::chrono::steady_clock::now();
      Result<std::string> reply =
          op.kind == SessionOp::Kind::kCheck   ? RunCheck(op.semantics)
          : op.kind == SessionOp::Kind::kCount ? RunCount(op.semantics)
          : op.kind == SessionOp::Kind::kConstruct
              ? RunConstruct()
              : RunCqa(op.semantics, op.query);
      stats_.query_micros += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      return reply;
    }
    case SessionOp::Kind::kStats:
      return RenderStats();
  }
  return Status::InvalidArgument("unknown session op");
}

}  // namespace prefrep
