#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "base/random.h"
#include "cache/block_cache.h"
#include "gen/edit_script.h"
#include "gen/hard_workloads.h"
#include "gen/random_instance.h"
#include "io/ops_format.h"
#include "io/text_format.h"
#include "model/context.h"
#include "persist/durable_session.h"
#include "persist/file_io.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "repair/checker.h"
#include "repair/construct.h"
#include "repair/counting.h"
#include "reply.h"
#include "serve/session.h"
#include "trace.h"

namespace e2ebench {

namespace {

using prefrep::AttrSet;
using prefrep::BlockSolveCache;
using prefrep::BoundedCount;
using prefrep::CheckOutcome;
using prefrep::CheckResult;
using prefrep::DurabilityOptions;
using prefrep::DurableSession;
using prefrep::DynamicBitset;
using prefrep::FactId;
using prefrep::FD;
using prefrep::PreferredRepairProblem;
using prefrep::ProblemContext;
using prefrep::RelId;
using prefrep::RepairChecker;
using prefrep::RepairSemantics;
using prefrep::ResourceBudget;
using prefrep::ResourceGovernor;
using prefrep::Result;
using prefrep::Schema;
using prefrep::SessionContext;
using prefrep::SessionOp;
using prefrep::SessionOptions;
using prefrep::Status;

using Counters = std::map<std::string, uint64_t>;

// Layer spans must cover this share of the wall time of every kind of
// request, so that no unattributed layer hides inside one.  Checked per
// kind rather than per request: an interrupt that lands between two
// spans of a microsecond-scale edit would otherwise fail the run.
constexpr double kMinCoverage = 0.90;

// ---- statistics -----------------------------------------------------

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

double ElapsedUs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---- accounting -----------------------------------------------------

// What one measured phase saw.  Every pass replays the same ops from the
// same state, so the i-th timed step of a pass — its *slot* — does the
// same work in every pass.  A slot's latency is its best over the
// phase's passes: the host this was built on slows every process down
// by up to 1.45x for seconds at a time (README.md, "Steadiness"), and
// the best of several passes is the latency the program itself sets.
// Set-up between passes and output checks are never timed.
struct Phase {
  struct Slot {
    double best_us;
    bool query;
    bool op;  // false: a one-shot request's load step
  };
  std::vector<Slot> slots;
  size_t next_slot = 0;
  uint64_t ops = 0;
  uint64_t answered = 0;
  uint64_t errors = 0;

  void BeginPass() { next_slot = 0; }

  void Time(bool query, bool op, double us) {
    if (next_slot == slots.size()) {
      slots.push_back({us, query, op});
    } else {
      slots[next_slot].best_us = std::min(slots[next_slot].best_us, us);
    }
    ++next_slot;
  }

  void Record(bool query, double us, ReplyOutcome outcome) {
    Time(query, /*op=*/true, us);
    ++ops;
    answered += outcome == ReplyOutcome::kAnswer ? 1 : 0;
    errors += outcome == ReplyOutcome::kError ? 1 : 0;
  }

  // Best latencies of the query slots, or of the edit and load slots.
  std::vector<double> BestUs(bool query) const {
    std::vector<double> out;
    for (const Slot& slot : slots) {
      if (slot.query == query) {
        out.push_back(slot.best_us);
      }
    }
    return out;
  }

  // Ops per second of best latency: one pass's ops over the sum of their
  // best latencies.
  double OpsPerSecond() const {
    double us = 0;
    size_t n = 0;
    for (const Slot& slot : slots) {
      us += slot.op ? slot.best_us : 0;
      n += slot.op ? 1 : 0;
    }
    return us > 0 ? static_cast<double>(n) / (us / 1e6) : 0;
  }
};

// The first output mismatch of a run.
struct Check {
  bool ok = true;
  std::string failure;

  void Expect(bool condition, const std::string& what) {
    if (!condition && ok) {
      ok = false;
      failure = what;
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// How many inputs (instances or scripts) set-ups cycle through.
  virtual size_t setup_inputs() const = 0;

  /// Seconds from problem text in memory to a primed context or an open
  /// session, for set-up number `rep` (of input `rep % setup_inputs()`).
  virtual double SetupSeconds(size_t rep) = 0;

  /// Checks the outputs that are too costly to check per request, and
  /// records counters that need a separate run; outside timed regions.
  virtual void VerifyOnce(Check& check, Counters& counters) = 0;

  /// One pass: one request per instance, or one replay of every session
  /// script.  With `counters`, also records the pass's deterministic
  /// counters.
  virtual void Pass(Phase& phase, Tracer& tracer, Check& check,
                    Counters* counters) = 0;
};

void CountConflicts(const ProblemContext& ctx, Counters& counters) {
  counters["conflicts.edges"] += ctx.conflict_graph().num_edges();
  const prefrep::BlockDecomposition& blocks = ctx.blocks();
  counters["conflicts.blocks"] += blocks.num_blocks();
  uint64_t& widest = counters["conflicts.max_block_facts"];
  for (size_t b = 0; b < blocks.num_blocks(); ++b) {
    widest = std::max<uint64_t>(widest, blocks.block(b).size());
  }
}

void CountCache(const prefrep::BlockCacheStats& stats, Counters& counters) {
  counters["cache.hits"] += stats.hits;
  counters["cache.misses"] += stats.misses;
  counters["cache.evictions"] += stats.evictions;
  counters["cache.bytes"] += stats.bytes;
}

Result<PreferredRepairProblem> ParseProblem(const std::string& text,
                                            Tracer& tracer) {
  Tracer::Span span(tracer, "io.parse_problem");
  return prefrep::ParseProblemText(text);
}

// ---- one-shot workloads ---------------------------------------------

// What one one-shot request answers.
struct OneShotAnswer {
  bool ok = false;
  CheckResult::Verdict verdict = CheckResult::Verdict::kUnknown;
  BoundedCount count;

  bool Complete() const {
    return ok && verdict != CheckResult::Verdict::kUnknown && count.exact;
  }
  bool operator==(const OneShotAnswer& other) const {
    return ok == other.ok && verdict == other.verdict &&
           count.lower_bound == other.count.lower_bound &&
           count.exact == other.count.exact;
  }
};

// A request is load (parse + context) then answer.  Its "edit" sample
// is the load: the step that replaces the state the answer reads.  A
// pass sends one request per instance; several instances per seed keep
// one instance's quirks (its search order, its block sizes) from
// setting a run's numbers.
class OneShot : public Workload {
 public:
  OneShot(std::string name, std::vector<std::string> texts)
      : name_(std::move(name)), texts_(std::move(texts)) {}

  size_t setup_inputs() const override { return texts_.size(); }

  double SetupSeconds(size_t rep) override {
    const std::string& text = texts_[rep % texts_.size()];
    const int64_t start = NowNs();
    Result<PreferredRepairProblem> problem = prefrep::ParseProblemText(text);
    PREFREP_CHECK(problem.ok());
    ProblemContext ctx(*problem->instance, *problem->priority);
    ctx.set_parallelism(1);
    ctx.Prime();
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  void VerifyOnce(Check& check, Counters& counters) override {
    references_.clear();
    for (const std::string& text : texts_) {
      Result<PreferredRepairProblem> problem = prefrep::ParseProblemText(text);
      check.Expect(problem.ok(),
                   name_ + ": a generated problem does not parse");
      references_.push_back(problem.ok() ? Verify(*problem, check, counters)
                                         : OneShotAnswer{});
    }
  }

  void Pass(Phase& phase, Tracer& tracer, Check& check,
            Counters* /*counters*/) override {
    for (size_t i = 0; i < texts_.size(); ++i) {
      Request(i, phase, tracer, check);
    }
  }

 protected:
  // Checks the outputs on one instance and records its counters; returns
  // the answer every request on it must give.
  virtual OneShotAnswer Verify(const PreferredRepairProblem& problem,
                               Check& check, Counters& counters) = 0;

  // Answers one request on a freshly loaded context (timed).
  virtual OneShotAnswer Answer(const PreferredRepairProblem& problem,
                               ProblemContext& ctx, Tracer& tracer) = 0;

  // Builds the artifacts in the order the checker would build them
  // lazily, each under its own span.
  static void BuildArtifacts(const ProblemContext& ctx, Tracer& tracer) {
    {
      Tracer::Span span(tracer, "conflicts.graph");
      (void)ctx.conflict_graph();
    }
    {
      Tracer::Span span(tracer, "conflicts.blocks");
      (void)ctx.blocks();
    }
    Tracer::Span span(tracer, "classify.schema");
    (void)ctx.classification();
  }

  static OneShotAnswer CheckAnswer(const PreferredRepairProblem& problem,
                                   const ProblemContext& ctx,
                                   Tracer& tracer) {
    Tracer::Span span(tracer, "repair.check");
    const RepairChecker checker(ctx);
    const Result<CheckOutcome> outcome =
        checker.CheckGloballyOptimal(problem.j);
    OneShotAnswer answer;
    answer.ok = outcome.ok();
    if (outcome.ok()) {
      answer.verdict = outcome->result.verdict;
    }
    return answer;
  }

  // Search nodes and abandoned blocks of one request, counted by a
  // governor armed with a node budget no request reaches (an unarmed
  // governor counts nothing).
  static void CountRepairWork(const PreferredRepairProblem& problem,
                              bool count, Counters& counters) {
    ProblemContext ctx(*problem.instance, *problem.priority);
    ctx.set_parallelism(1);
    ResourceBudget budget;
    budget.max_nodes = uint64_t{1} << 62;
    ResourceGovernor governor(budget);
    ctx.set_governor(&governor);
    const Result<CheckOutcome> outcome =
        RepairChecker(ctx).CheckGloballyOptimal(problem.j);
    uint64_t abandoned =
        outcome.ok() ? outcome->degradation.blocks_abandoned : 0;
    if (count) {
      abandoned +=
          prefrep::CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal)
              .unknown_blocks;
    }
    counters["repair.nodes"] += governor.nodes_spent();
    counters["repair.blocks_abandoned"] += abandoned;
  }

  std::string name_;

 private:
  void Request(size_t i, Phase& phase, Tracer& tracer, Check& check) {
    const int64_t start = NowNs();
    double load_us = 0;
    OneShotAnswer answer;
    {
      Tracer::Span request(tracer, kRequestSpan);
      Result<PreferredRepairProblem> problem = ParseProblem(texts_[i], tracer);
      if (problem.ok()) {
        ProblemContext ctx(*problem->instance, *problem->priority);
        ctx.set_parallelism(1);
        load_us = ElapsedUs(start);
        answer = Answer(*problem, ctx, tracer);
      }
    }
    const double us = ElapsedUs(start);
    phase.Record(true, us,
                 !answer.ok          ? ReplyOutcome::kError
                 : answer.Complete() ? ReplyOutcome::kAnswer
                                     : ReplyOutcome::kBudgetCut);
    phase.Time(/*query=*/false, /*op=*/false, load_us);
    check.Expect(answer == references_[i],
                 name_ + ": a request's answer differs from the reference");
  }

  std::vector<std::string> texts_;
  std::vector<OneShotAnswer> references_;
};

// The texts of `n` instances, the i-th made by `make` from a seed of its
// own derived from the run's seed.
std::vector<std::string> InstanceTexts(uint64_t seed, size_t n,
                                       std::string (*make)(uint64_t)) {
  std::vector<std::string> texts;
  for (size_t i = 0; i < n; ++i) {
    texts.push_back(make(SplitMix(seed) + i));
  }
  return texts;
}

// bulk-check: R(3) with FD 1 → 2 (many ~4-fact blocks for the one-FD
// polynomial solver) beside a larger S(2) with two keys (few large
// blocks, most of the parse bytes).
constexpr size_t kOneFdFacts = 600;
constexpr size_t kTwoKeysFacts = 4000;

PreferredRepairProblem RandomPart(const Schema& schema, size_t facts,
                                  uint64_t seed) {
  prefrep::RandomProblemOptions options;
  options.facts_per_relation = facts;
  options.domain_size = facts / 4 + 2;
  options.priority_density = 0.6;
  options.j_policy = prefrep::JPolicy::kHighPriorityRepair;
  options.seed = seed;
  return prefrep::GenerateRandomProblem(schema, options);
}

std::string BulkCheckText(uint64_t seed) {
  const FD one_fd(AttrSet{1}, AttrSet{2});
  const FD key1(AttrSet{1}, AttrSet{2});
  const FD key2(AttrSet{2}, AttrSet{1});
  Schema schema;
  const RelId r = schema.MustAddRelation("R", 3);
  schema.MustAddFd(r, one_fd);
  const RelId s = schema.MustAddRelation("S", 2);
  schema.MustAddFd(s, key1);
  schema.MustAddFd(s, key2);
  const PreferredRepairProblem parts[] = {
      RandomPart(Schema::SingleRelation("R", 3, {one_fd}), kOneFdFacts,
                 SplitMix(seed)),
      RandomPart(Schema::SingleRelation("S", 2, {key1, key2}), kTwoKeysFacts,
                 SplitMix(seed + 1))};
  const RelId rels[] = {r, s};
  const char* const prefixes[] = {"r", "s"};

  PreferredRepairProblem out(schema);
  std::vector<FactId> ids[2];
  for (size_t p = 0; p < 2; ++p) {
    const prefrep::Instance& part = *parts[p].instance;
    for (FactId f = 0; f < part.num_facts(); ++f) {
      std::vector<std::string> constants;
      for (prefrep::ValueId v : part.fact(f).values) {
        constants.push_back(part.dict().Text(v));
      }
      Result<FactId> id = out.instance->AddFact(
          rels[p], constants, prefixes[p] + std::to_string(f));
      PREFREP_CHECK(id.ok());
      ids[p].push_back(*id);
    }
  }
  out.InitPriority();
  out.j = DynamicBitset(out.instance->num_facts());
  for (size_t p = 0; p < 2; ++p) {
    for (const auto& [higher, lower] : parts[p].priority->edges()) {
      out.priority->MustAdd(ids[p][higher], ids[p][lower]);
    }
    parts[p].j.ForEach([&](size_t f) { out.j.set(ids[p][f]); });
  }
  return prefrep::ProblemToText(out);
}

constexpr size_t kBulkInstances = 4;

class BulkCheck : public OneShot {
 public:
  explicit BulkCheck(uint64_t seed)
      : OneShot("bulk-check",
                InstanceTexts(seed, kBulkInstances, BulkCheckText)) {}

 protected:
  OneShotAnswer Verify(const PreferredRepairProblem& problem, Check& check,
                       Counters& counters) override {
    ProblemContext ctx(*problem.instance, *problem.priority);
    ctx.set_parallelism(1);
    Tracer off(false);
    const OneShotAnswer reference = CheckAnswer(problem, ctx, off);
    check.Expect(reference.Complete(), "bulk-check: J has no verdict");
    // Round trip: the repair construction builds must check optimal.
    const Result<DynamicBitset> repair =
        prefrep::TryConstructGloballyOptimalRepair(ctx);
    check.Expect(repair.ok(), "bulk-check: construction failed");
    if (repair.ok()) {
      const Result<CheckOutcome> round =
          RepairChecker(ctx).CheckGloballyOptimal(*repair);
      check.Expect(round.ok() && round->result.verdict ==
                                     CheckResult::Verdict::kYes,
                   "bulk-check: the constructed repair does not check "
                   "optimal");
    }
    CountConflicts(ctx, counters);
    CountRepairWork(problem, /*count=*/false, counters);
    return reference;
  }

  OneShotAnswer Answer(const PreferredRepairProblem& problem,
                       ProblemContext& ctx, Tracer& tracer) override {
    BuildArtifacts(ctx, tracer);
    return CheckAnswer(problem, ctx, tracer);
  }
};

// hard-sharded: 16 exhaustive S1 blocks of 4 cliques × 4 facts, every
// block distinct, so the per-request cache is probed but never hits.
// The seed shuffles the fact lines, which renumbers the facts.
std::string HardShardedText(uint64_t seed) {
  const std::string text = prefrep::ProblemToText(
      prefrep::MakeHardShardedWorkload(16, 4, 4, /*distinct_blocks=*/true));
  std::vector<std::string> lines;
  std::vector<size_t> fact_slots;
  for (size_t begin = 0; begin < text.size();) {
    const size_t end = std::min(text.find('\n', begin), text.size());
    lines.push_back(text.substr(begin, end - begin));
    if (lines.back().starts_with("fact ")) {
      fact_slots.push_back(lines.size() - 1);
    }
    begin = end + 1;
  }
  std::vector<std::string> facts;
  for (size_t slot : fact_slots) {
    facts.push_back(lines[slot]);
  }
  prefrep::Rng rng(SplitMix(seed));
  rng.Shuffle(&facts);
  for (size_t i = 0; i < fact_slots.size(); ++i) {
    lines[fact_slots[i]] = facts[i];
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line + "\n";
  }
  return out;
}

constexpr size_t kHardInstances = 16;

class HardSharded : public OneShot {
 public:
  explicit HardSharded(uint64_t seed)
      : OneShot("hard-sharded",
                InstanceTexts(seed, kHardInstances, HardShardedText)) {}

 protected:
  OneShotAnswer Verify(const PreferredRepairProblem& problem, Check& check,
                       Counters& counters) override {
    // Reference: check and count with the cache off.
    ProblemContext ctx(*problem.instance, *problem.priority);
    ctx.set_parallelism(1);
    Tracer off(false);
    OneShotAnswer reference = CheckAnswer(problem, ctx, off);
    reference.count =
        prefrep::CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
    check.Expect(reference.verdict == CheckResult::Verdict::kYes,
                 "hard-sharded: J must check optimal");
    check.Expect(reference.Complete(),
                 "hard-sharded: the uncached count is not exact");
    // The request path (cache on) must agree with the recount; its
    // cache traffic is the cache counter set.
    ProblemContext cached_ctx(*problem.instance, *problem.priority);
    cached_ctx.set_parallelism(1);
    const OneShotAnswer cached = Answer(problem, cached_ctx, off);
    check.Expect(cached == reference,
                 "hard-sharded: the cached answer differs from the "
                 "uncached recount");
    CountCache(last_cache_stats_, counters);
    CountConflicts(ctx, counters);
    CountRepairWork(problem, /*count=*/true, counters);
    return reference;
  }

  OneShotAnswer Answer(const PreferredRepairProblem& problem,
                       ProblemContext& ctx, Tracer& tracer) override {
    BlockSolveCache cache;
    ctx.set_block_cache(&cache);
    BuildArtifacts(ctx, tracer);
    OneShotAnswer answer = CheckAnswer(problem, ctx, tracer);
    {
      Tracer::Span span(tracer, "repair.count");
      answer.count =
          prefrep::CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
    }
    ctx.set_block_cache(nullptr);
    last_cache_stats_ = cache.stats();
    return answer;
  }

 private:
  prefrep::BlockCacheStats last_cache_stats_;
};

// ---- zipf-session ---------------------------------------------------

constexpr size_t kZipfScripts = 16;
constexpr size_t kZipfOps = 1024;
constexpr uint64_t kSnapshotEvery = 256;
// Every this many queries, the reply is compared with a fresh session
// rebuilt from SerializeLive().
constexpr uint64_t kVerifyEvery = 16;

SessionOptions ZipfSessionOptions() {
  SessionOptions options;
  options.threads = 1;
  options.cache_capacity = 4096;
  options.budget.max_nodes = 20000;
  return options;
}

DurabilityOptions ZipfDurability(const std::string& wal_path) {
  DurabilityOptions durability;
  durability.wal_path = wal_path;
  durability.snapshot_path = wal_path + ".snapshot";
  durability.fsync = prefrep::FsyncMode::kOff;
  durability.snapshot_every = kSnapshotEvery;
  return durability;
}

Status RemoveDurableFiles(const DurabilityOptions& durability) {
  PREFREP_RETURN_NOT_OK(prefrep::RemoveFileIfExists(durability.wal_path));
  return prefrep::RemoveFileIfExists(durability.snapshot_path);
}

// A resident session behind a WAL + snapshot pair.  Unsplit, it is a
// DurableSession.  Split (traced runs), it makes the calls of
// DurableSession::Execute itself, in the same order, so that serve and
// persist each get their own spans.
class ZipfServer {
 public:
  static Result<std::unique_ptr<ZipfServer>> Open(
      const PreferredRepairProblem& problem, const std::string& wal_path,
      bool split) {
    const DurabilityOptions durability = ZipfDurability(wal_path);
    PREFREP_RETURN_NOT_OK(RemoveDurableFiles(durability));
    auto server = std::unique_ptr<ZipfServer>(new ZipfServer());
    if (!split) {
      PREFREP_ASSIGN_OR_RETURN(
          server->durable_,
          DurableSession::Open(problem, ZipfSessionOptions(), durability));
      return server;
    }
    PREFREP_ASSIGN_OR_RETURN(
        server->session_,
        SessionContext::Create(problem, ZipfSessionOptions()));
    PREFREP_RETURN_NOT_OK(
        server->wal_.Open(durability.wal_path, durability.fsync, 1));
    server->snapshot_path_ = durability.snapshot_path;
    return server;
  }

  SessionContext& session() {
    return durable_ != nullptr ? durable_->session() : *session_;
  }

  Result<std::string> Execute(const SessionOp& op, Tracer& tracer) {
    if (durable_ != nullptr) {
      return durable_->Execute(op);
    }
    if (!DurableSession::IsDurableEdit(op.kind)) {
      return session_->Execute(op);
    }
    Result<std::string> reply = [&] {
      Tracer::Span span(tracer, "serve.edit");
      return session_->Execute(op);
    }();
    if (!reply.ok()) {
      return reply;
    }
    {
      Tracer::Span span(tracer, "persist.wal_append");
      const std::string payload = prefrep::SessionOpToString(op);
      Result<uint64_t> seq = wal_.Append(payload);
      if (!seq.ok()) {
        return seq.status();
      }
      wal_bytes_ += prefrep::kWalRecordHeaderBytes + payload.size();
    }
    if (++edits_since_checkpoint_ >= kSnapshotEvery) {
      Tracer::Span span(tracer, "persist.checkpoint");
      PREFREP_RETURN_NOT_OK(Checkpoint());
    }
    return reply;
  }

  uint64_t wal_bytes() const { return wal_bytes_; }
  uint64_t checkpoints() const { return checkpoints_; }

 private:
  ZipfServer() = default;

  // DurableSession::Checkpoint, call by call.
  Status Checkpoint() {
    PREFREP_RETURN_NOT_OK(wal_.SyncNow());
    const uint64_t seq = wal_.next_seq() - 1;
    SessionOp budget_op;
    budget_op.kind = SessionOp::Kind::kBudget;
    budget_op.budget = session_->budget();
    const std::string body = session_->SerializeLive();
    PREFREP_RETURN_NOT_OK(prefrep::AtomicWriteFile(
        snapshot_path_,
        prefrep::RenderSnapshot(seq, prefrep::SessionOpToString(budget_op),
                                body)));
    PREFREP_RETURN_NOT_OK(wal_.Truncate(seq + 1));
    edits_since_checkpoint_ = 0;
    ++checkpoints_;
    return Status::OK();
  }

  std::unique_ptr<DurableSession> durable_;
  std::unique_ptr<SessionContext> session_;
  prefrep::WalWriter wal_;
  std::string snapshot_path_;
  uint64_t edits_since_checkpoint_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t checkpoints_ = 0;
};

const char* QuerySpan(SessionOp::Kind kind) {
  switch (kind) {
    case SessionOp::Kind::kCheck:
      return "repair.check";
    case SessionOp::Kind::kCount:
      return "repair.count";
    case SessionOp::Kind::kConstruct:
      return "repair.construct";
    case SessionOp::Kind::kCqa:
      return "query.cqa";
    default:
      return "serve.stats";
  }
}

Result<SessionOp> ParseOp(const std::string& line, Tracer& tracer) {
  Tracer::Span span(tracer, "io.parse_op");
  return prefrep::ParseSessionOp(line);
}

// Compares `reply` with the reply of a session rebuilt from the live
// state: the serving layer's byte-identical-under-rebuild contract.
void VerifyAgainstRebuild(SessionContext& live, const SessionOp& op,
                          const Result<std::string>& reply, Check& check) {
  const std::string what =
      "zipf-session: reply to '" + prefrep::SessionOpToString(op) + "'";
  Result<PreferredRepairProblem> rebuilt =
      prefrep::ParseProblemText(live.SerializeLive());
  check.Expect(rebuilt.ok(), what + ": SerializeLive() does not parse");
  if (!rebuilt.ok()) {
    return;
  }
  SessionOptions options = ZipfSessionOptions();
  options.budget = live.budget();
  Result<std::unique_ptr<SessionContext>> fresh =
      SessionContext::Create(*rebuilt, options);
  check.Expect(fresh.ok(), what + ": the rebuild does not open");
  if (!fresh.ok()) {
    return;
  }
  const Result<std::string> expected = (*fresh)->Execute(op);
  const bool same =
      expected.ok() == reply.ok() &&
      (reply.ok() ? *expected == *reply
                  : expected.status().ToString() == reply.status().ToString());
  check.Expect(same, what + " differs from a rebuild from SerializeLive()");
}

class ZipfSession : public Workload {
 public:
  ZipfSession(uint64_t seed, const std::string& work_dir)
      : wal_path_(work_dir + "/zipf.wal") {
    for (size_t i = 0; i < kZipfScripts; ++i) {
      prefrep::EditScriptOptions options;
      options.shards = 64;
      options.facts_per_shard = 4;
      options.num_ops = kZipfOps;
      options.shard_skew = 1.1;
      options.query_fraction = 0.25;
      options.delete_fraction = 0.40;
      options.jset_every = 16;
      options.seed = SplitMix(seed) + i;
      prefrep::EditScriptWorkload workload =
          prefrep::MakeEditScriptWorkload(options);
      Script script;
      script.text = prefrep::ProblemToText(workload.problem);
      script.problem = std::move(workload.problem);
      script.lines = std::move(workload.ops);
      scripts_.push_back(std::move(script));
    }
  }

  size_t setup_inputs() const override { return scripts_.size(); }

  double SetupSeconds(size_t rep) override {
    const Script& script = scripts_[rep % scripts_.size()];
    const DurabilityOptions durability = ZipfDurability(wal_path_);
    PREFREP_CHECK(RemoveDurableFiles(durability).ok());
    const int64_t start = NowNs();
    Result<PreferredRepairProblem> problem =
        prefrep::ParseProblemText(script.text);
    PREFREP_CHECK(problem.ok());
    Result<std::unique_ptr<DurableSession>> session =
        DurableSession::Open(*problem, ZipfSessionOptions(), durability);
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    PREFREP_CHECK(session.ok());
    return seconds;
  }

  // Replies are checked against rebuilds inside Pass.
  void VerifyOnce(Check& /*check*/, Counters& /*counters*/) override {}

  void Pass(Phase& phase, Tracer& tracer, Check& check,
            Counters* counters) override {
    for (const Script& script : scripts_) {
      RunScript(script, phase, tracer, check, counters);
    }
  }

 private:
  struct Script {
    std::string text;
    PreferredRepairProblem problem;
    std::vector<std::string> lines;
  };

  void RunScript(const Script& script, Phase& phase, Tracer& tracer,
                 Check& check, Counters* counters) {
    Result<std::unique_ptr<ZipfServer>> opened =
        ZipfServer::Open(script.problem, wal_path_, tracer.enabled());
    check.Expect(opened.ok(), "zipf-session: the session does not open");
    if (!opened.ok()) {
      return;
    }
    ZipfServer& server = **opened;
    uint64_t queries = 0;
    uint64_t nodes = 0;
    uint64_t abandoned = 0;
    uint64_t failed = 0;
    Result<SessionOp> op = Status::Internal("no op parsed");
    Result<std::string> reply = Status::Internal("no op executed");
    for (const std::string& line : script.lines) {
      const int64_t start = NowNs();
      {
        Tracer::Span request(tracer, kRequestSpan);
        op = ParseOp(line, tracer);
        if (!op.ok()) {
          reply = op.status();
        } else if (DurableSession::IsDurableEdit(op->kind)) {
          reply = server.Execute(*op, tracer);
        } else {
          {
            Tracer::Span span(tracer, "serve.refresh");
            (void)server.session().context();
          }
          Tracer::Span span(tracer, QuerySpan(op->kind));
          reply = server.Execute(*op, tracer);
        }
      }
      const double us = ElapsedUs(start);
      const bool query =
          op.ok() && !DurableSession::IsDurableEdit(op->kind);
      const ReplyOutcome outcome = ClassifyReply(reply);
      phase.Record(query, us, outcome);
      if (reply.ok()) {
        nodes += ReportedNodes(*reply);
        abandoned += AbandonedBlocks(*reply);
      }
      failed += outcome == ReplyOutcome::kAnswer ? 0 : 1;
      if (query && ++queries % kVerifyEvery == 0) {
        VerifyAgainstRebuild(server.session(), *op, reply, check);
      }
    }
    if (counters == nullptr) {
      return;
    }
    SessionContext& session = server.session();
    CountCache(session.cache()->stats(), *counters);
    (*counters)["classify.memo_hits"] += session.categoricity_memo().hits();
    (*counters)["classify.memo_misses"] +=
        session.categoricity_memo().misses();
    (*counters)["serve.blocks_retired"] += session.stats().blocks_retired;
    (*counters)["serve.cache_entries_erased"] +=
        session.stats().cache_entries_erased;
    (*counters)["persist.wal_bytes"] += server.wal_bytes();
    (*counters)["persist.checkpoints"] += server.checkpoints();
    (*counters)["repair.nodes"] += nodes;
    (*counters)["repair.blocks_abandoned"] += abandoned;
    (*counters)["failed_ops"] += failed;
    CountConflicts(session.context(), *counters);
  }

  std::string wal_path_;
  std::vector<Script> scripts_;
};

// ---- the run ----------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "bulk-check") {
    return std::make_unique<BulkCheck>(options.seed);
  }
  if (options.workload == "hard-sharded") {
    return std::make_unique<HardSharded>(options.seed);
  }
  if (options.workload == "zipf-session") {
    return std::make_unique<ZipfSession>(options.seed, options.work_dir);
  }
  return nullptr;
}

// Set-ups per input in a run.
constexpr size_t kSetupsPerInput = 10;

// Whole passes until `seconds` are spent (at least one), so that every
// run measures the same op mix.  Counters come from the first pass.
// With `setups`, set-up samples are taken between passes, spread evenly
// over the phase, so that they see the same host as the ops.
Phase RunPhase(Workload& workload, Tracer& tracer, double seconds,
               Check& check, Counters* counters,
               std::vector<double>* setups) {
  Phase phase;
  const int64_t start = NowNs();
  const auto span_ns = static_cast<int64_t>(seconds * 1e9);
  const size_t reps =
      setups != nullptr ? kSetupsPerInput * workload.setup_inputs() : 0;
  auto take_setups = [&](int64_t until_ns) {
    while (setups != nullptr && setups->size() < reps &&
           start + span_ns * static_cast<int64_t>(setups->size()) /
                       static_cast<int64_t>(reps) <=
               until_ns) {
      setups->push_back(workload.SetupSeconds(setups->size()));
    }
  };
  do {
    take_setups(NowNs());
    phase.BeginPass();
    workload.Pass(phase, tracer, check, counters);
    counters = nullptr;
  } while (NowNs() < start + span_ns && check.ok);
  take_setups(INT64_MAX);
  return phase;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* const kSpanMetrics[] = {
    "io.parse_problem", "io.parse_op",      "conflicts.graph",
    "conflicts.blocks", "classify.schema",  "repair.check",
    "repair.count",     "repair.construct", "query.cqa",
    "serve.refresh",    "serve.edit",       "persist.wal_append",
    "persist.checkpoint"};

const char* const kCounterMetrics[] = {
    "conflicts.edges",         "conflicts.blocks",
    "conflicts.max_block_facts", "classify.memo_hits",
    "classify.memo_misses",    "repair.nodes",
    "repair.blocks_abandoned", "cache.hits",
    "cache.misses",            "cache.evictions",
    "cache.bytes",             "serve.blocks_retired",
    "serve.cache_entries_erased", "persist.wal_bytes",
    "persist.checkpoints"};

const char* const kShareLayers[] = {"io",    "conflicts", "classify", "repair",
                                    "query", "serve",     "persist"};

std::string CounterUnit(std::string_view name) {
  return name.ends_with("bytes") ? "bytes" : "count";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"bulk-check", "hard-sharded",
                                                 "zipf-session"};
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    report.correct = false;
    report.failure = "unknown workload '" + options.workload + "'";
    return report;
  }
  Check check;
  Counters counters;
  workload->VerifyOnce(check, counters);

  const double phase_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Tracer untraced(false);
  std::vector<double> setups;
  const Phase phase =
      RunPhase(*workload, untraced, phase_seconds, check, nullptr, &setups);
  report.attempted = phase.ops;
  report.failed = phase.errors;
  auto& e2e = report.end_to_end;
  // Set-up, like an op, is timed per input at its best over the run; the
  // metric is the median over inputs.
  std::vector<double> best_setups(workload->setup_inputs(), INFINITY);
  for (size_t rep = 0; rep < setups.size(); ++rep) {
    double& best = best_setups[rep % best_setups.size()];
    best = std::min(best, setups[rep]);
  }
  e2e.push_back({"setup_s", Quantile(best_setups, 0.5), "s"});
  e2e.push_back({"ops_per_s", phase.OpsPerSecond(), "ops/s"});
  // Queries report a p90, not a median: zipf-session's query latencies
  // cluster around two costs (cheap checks, budget-bound CQA), and the
  // median falls between them, where the seed's op mix moves it most
  // (README.md, "Steadiness").  ops_per_s carries the mean.
  e2e.push_back({"query_p90_us", Quantile(phase.BestUs(true), 0.90), "us"});
  e2e.push_back({"edit_p50_us", Quantile(phase.BestUs(false), 0.50), "us"});
  e2e.push_back({"answered_share",
                 phase.ops > 0 ? static_cast<double>(phase.answered) /
                                     static_cast<double>(phase.ops)
                               : 0,
                 "fraction"});

  if (options.trace) {
    Tracer tracer(true);
    const Phase traced =
        RunPhase(*workload, tracer, phase_seconds, check, &counters, nullptr);
    report.attempted += traced.ops;
    report.failed += traced.errors;
    const LayerProfile profile = Analyze(tracer.spans());
    check.Expect(profile.min_kind_coverage >= kMinCoverage,
                 "layer spans cover only " +
                     std::to_string(profile.min_kind_coverage) +
                     " of the wall time of '" + profile.min_kind +
                     "' requests");
    if (!options.spans_path.empty()) {
      check.Expect(WriteSpans(tracer.spans(), options.spans_path),
                   "cannot write " + options.spans_path);
    }
    auto& layers = report.per_layer;
    for (const char* span : kSpanMetrics) {
      layers.push_back(
          {std::string(span) + "_us", profile.MeanUs(span), "us"});
    }
    for (const char* name : kCounterMetrics) {
      layers.push_back(
          {name, static_cast<double>(counters[name]), CounterUnit(name)});
    }
    const uint64_t probes = counters["cache.hits"] + counters["cache.misses"];
    layers.push_back(
        {"cache.hit_ratio",
         probes > 0 ? static_cast<double>(counters["cache.hits"]) /
                          static_cast<double>(probes)
                    : 0,
         "fraction"});
    for (const char* layer : kShareLayers) {
      layers.push_back(
          {std::string(layer) + ".share", profile.Share(layer), "fraction"});
    }
    layers.push_back({"trace.overhead",
                      phase.OpsPerSecond() > 0
                          ? traced.OpsPerSecond() / phase.OpsPerSecond()
                          : 0,
                      "ratio"});
    layers.push_back({"trace.coverage", profile.coverage, "fraction"});
    report.counters = counters;
  }
  e2e.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  report.correct = check.ok;
  report.failure = check.failure;
  return report;
}

}  // namespace e2ebench
