// Tests for the resident serving layer (serve/): incremental
// conflict/block maintenance under insert/delete/prefer, the batched
// op API, and the byte-identical-to-rebuild contract — after any edit
// sequence every query reply must equal the reply of a fresh session
// built from the serialized live state, across threads 1/8, cache
// on/off, and governed/ungoverned configurations.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/block_fingerprint.h"
#include "gen/edit_script.h"
#include "io/ops_format.h"
#include "io/text_format.h"
#include "repair/block_solver.h"
#include "serve/session.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

std::unique_ptr<SessionContext> MustCreate(const PreferredRepairProblem& p,
                                           SessionOptions options = {}) {
  Result<std::unique_ptr<SessionContext>> session =
      SessionContext::Create(p, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

std::string MustExecute(SessionContext& session, const std::string& line) {
  Result<SessionOp> op = ParseSessionOp(line);
  EXPECT_TRUE(op.ok()) << line << ": " << op.status().ToString();
  Result<std::string> reply = session.Execute(*op);
  EXPECT_TRUE(reply.ok()) << line << ": " << reply.status().ToString();
  return reply.ok() ? *reply : std::string();
}

// The base fixture problem: two independent blocks {a1, a2} and
// {b1, b2, b3} plus the free fact c1, with a1 ≻ a2 and b1 ≻ b2.
PreferredRepairProblem FixtureProblem() {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: ka, x1", "a2: ka, x2", "b1: kb, y1",
                "b2: kb, y2", "b3: kb, y3", "c1: kc, z1"};
  spec.priorities = {"a1 > a2", "b1 > b2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.j = testing_util::Sub(*p.instance, {"a1", "b1", "c1"});
  return p;
}

// Every query the battery compares, in one deterministic order.
std::vector<std::string> AllQueries() {
  return {
      "check global",
      "check pareto",
      "check completion",
      "count global",
      "count pareto",
      "count completion",
      "construct",
      "cqa global Q(x) :- R(x, y)",
      "cqa repairs Q(y) :- R(x, y)",
  };
}

// Asserts that `session` answers every query byte-identically to a
// fresh session built by parsing session.SerializeLive().  This is THE
// serving-layer contract: incremental maintenance must be externally
// invisible.
void ExpectMatchesRebuild(SessionContext& session, SessionOptions options,
                          const std::string& note,
                          const std::vector<std::string>& queries =
                              AllQueries()) {
  const std::string text = session.SerializeLive();
  Result<PreferredRepairProblem> reparsed = ParseProblemText(text);
  ASSERT_TRUE(reparsed.ok()) << note << ": " << reparsed.status().ToString();
  std::unique_ptr<SessionContext> rebuilt = MustCreate(*reparsed, options);
  // The rebuilt session's J comes from the serialized `j` clause; the
  // live session's J is whatever the edits left.  SerializeLive emits
  // it, so the two agree by construction — just confirm.
  ASSERT_EQ(session.JSubinstance().count(),
            rebuilt->JSubinstance().count())
      << note;
  for (const std::string& query : queries) {
    const std::string live_reply = MustExecute(session, query);
    const std::string rebuilt_reply = MustExecute(*rebuilt, query);
    EXPECT_EQ(live_reply, rebuilt_reply) << note << " query: " << query;
  }
}

// ---- Directed edit/boundary cases ----------------------------------

TEST(ServeSessionTest, InsertIntoFreeSpaceStaysFree) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  const std::string reply = MustExecute(*s, "insert d1 R(kd, w1)");
  EXPECT_NE(reply.find("(free)"), std::string::npos) << reply;
  ExpectMatchesRebuild(*s, {}, "free insert");
}

TEST(ServeSessionTest, InsertMergesFreeFactIntoBlock) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  // c2 conflicts the free fact c1: the pair becomes a new 2-block.
  const std::string reply = MustExecute(*s, "insert c2 R(kc, z2)");
  EXPECT_NE(reply.find("block of 2"), std::string::npos) << reply;
  ExpectMatchesRebuild(*s, {}, "free->block merge");
}

TEST(ServeSessionTest, InsertMergesTwoBlocksViaBridgeFact) {
  ProblemSpec spec;
  spec.arity = 3;
  // FDs 1→2 and 2→3: {a1,a2} conflict on attribute 1, {b1,b2} on
  // attribute 2 — a bridge fact sharing ka and m2 joins both.
  spec.fds = {"1 -> 2", "2 -> 3"};
  spec.facts = {"a1: ka, m1, t1", "a2: ka, m1b, t2", "b1: kb, m2, u1",
                "b2: kb2, m2, u2"};
  spec.priorities = {};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.j = p.instance->EmptySubinstance();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  const std::string reply = MustExecute(*s, "insert z R(ka, m2, t9)");
  EXPECT_NE(reply.find("block of 5"), std::string::npos) << reply;
  ExpectMatchesRebuild(*s, {}, "two-block merge");
}

TEST(ServeSessionTest, DeleteSplitsBlockAndFreesSingletons) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  // {a1, a2} is a 2-block; deleting a1 leaves a2 free (0 blocks remain).
  const std::string reply = MustExecute(*s, "delete a1");
  EXPECT_NE(reply.find("0 block(s) remain"), std::string::npos) << reply;
  ExpectMatchesRebuild(*s, {}, "block->free split");
}

TEST(ServeSessionTest, DeleteBridgeResplitsMergedBlock) {
  ProblemSpec spec;
  spec.arity = 3;
  spec.fds = {"1 -> 2", "2 -> 3"};
  spec.facts = {"a1: ka, m1, t1", "a2: ka, m1b, t2", "b1: kb, m2, u1",
                "b2: kb2, m2, u2", "z: ka, m2, t9"};
  spec.priorities = {};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.j = p.instance->EmptySubinstance();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  // z bridges {a1,a2} and {b1,b2} into one 5-block; removing it
  // restores the two original blocks.
  const std::string reply = MustExecute(*s, "delete z");
  EXPECT_NE(reply.find("2 block(s) remain"), std::string::npos) << reply;
  ExpectMatchesRebuild(*s, {}, "bridge delete resplit");
}

TEST(ServeSessionTest, DeleteDropsJMember) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  const size_t before = s->JSubinstance().count();
  MustExecute(*s, "delete b1");
  EXPECT_EQ(s->JSubinstance().count(), before - 1);
  ExpectMatchesRebuild(*s, {}, "delete J member");
}

TEST(ServeSessionTest, OneFdWitnessSkipsDeletedFacts) {
  // FD 1 → 2 over arity 3: f conflicts with g and h, which agree on
  // attributes {1, 2}, so the swap J[f↔g] adds both while h is live.
  // Once h is deleted its id stays in the relation's fact list as a
  // tombstone; the witness must not name it.
  Result<PreferredRepairProblem> p = ParseProblemText(
      "relation R 3\n"
      "fd R: 1 -> 2\n"
      "fact f R(a, b1, c1)\n"
      "fact g R(a, b2, c1)\n"
      "fact h R(a, b2, c2)\n"
      "prefer g > f\n"
      "prefer h > f\n"
      "j f\n");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::unique_ptr<SessionContext> s = MustCreate(*p);
  EXPECT_NE(MustExecute(*s, "check global").find("witness: {g, h}"),
            std::string::npos);
  MustExecute(*s, "delete h");
  const std::string reply = MustExecute(*s, "check global");
  EXPECT_NE(reply.find("witness: {g}\n"), std::string::npos) << reply;
  ExpectMatchesRebuild(*s, {}, "one-fd delete",
                       {"check global", "check pareto", "count global",
                        "construct"});
}

TEST(ServeSessionTest, ConstantAttrCheckSkipsDeletedFacts) {
  // FD ∅ → 2 is a constant-attribute assignment and a > d joins two
  // facts that do not conflict, so every block is checked by its
  // consistent partitions (§7.2.2).  Once b is deleted its id stays in
  // the relation's fact list as a tombstone; a partition holding it
  // would make J ∪ {b} look like an improvement of J = {a, d}.
  Result<PreferredRepairProblem> p = ParseProblemText(
      "relation R 2\n"
      "fd R: {} -> 2\n"
      "fact a R(1, x)\n"
      "fact b R(2, x)\n"
      "fact d R(4, x)\n"
      "fact c R(3, y)\n"
      "prefer a > d\n"
      "j a b d\n");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::unique_ptr<SessionContext> s = MustCreate(*p);
  EXPECT_EQ(MustExecute(*s, "check global").find("not optimal"),
            std::string::npos);
  MustExecute(*s, "delete b");
  const std::string reply = MustExecute(*s, "check global");
  EXPECT_EQ(reply.find("not optimal"), std::string::npos) << reply;
  EXPECT_NE(MustExecute(*s, "count global").find("count global: 2"),
            std::string::npos);
  ExpectMatchesRebuild(*s, {}, "constant-attribute delete",
                       {"check global", "count global",
                        "cqa global Q(x) :- R(x, y)"});
}

TEST(ServeSessionTest, RevivalRestoresIdenticalFact) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  MustExecute(*s, "delete b3");
  const std::string reply = MustExecute(*s, "insert b3 R(kb, y3)");
  EXPECT_NE(reply.find("revived"), std::string::npos) << reply;
  ExpectMatchesRebuild(*s, {}, "revival");
}

// With the cache on, a delete retires a block and a revival re-forms
// it with its old fingerprint.  Edits erase no cache entry, so the
// re-formed block is answered from the cache: hits rise, misses do not.
TEST(ServeSessionTest, RevivedBlockIsServedFromTheCache) {
  PreferredRepairProblem p = FixtureProblem();
  SessionOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  std::unique_ptr<SessionContext> s = MustCreate(p, options);
  const std::string cold = MustExecute(*s, "count global");
  MustExecute(*s, "delete b3");
  MustExecute(*s, "insert b3 R(kb, y3)");
  const BlockCacheStats before = s->cache()->stats();
  EXPECT_EQ(MustExecute(*s, "count global"), cold);
  const BlockCacheStats after = s->cache()->stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  ExpectMatchesRebuild(*s, options, "revival with the cache on");
}

// With the cache on, a `count global` after a `cqa global` on an
// unchanged session reads the optimal sets the cqa stored: it adds
// hits and no miss, and answers as a cache-less session does.  Both
// blocks are exhaustive (two FDs over arity 3) and neither priority is
// total on its conflicts, so both reach the cache.
TEST(ServeSessionTest, CountAfterCqaReadsTheStoredOptimalSets) {
  ProblemSpec spec;
  spec.arity = 3;
  spec.fds = {"1 -> 2", "2 -> 3"};
  spec.facts = {"a1: ka, x1, p", "a2: ka, x2, p", "a3: ka, x3, q",
                "b1: kb, y1, r", "b2: kb, y2, s"};
  spec.priorities = {"a1 > a2"};
  const PreferredRepairProblem p = testing_util::MakeProblem(spec);
  SessionOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  std::unique_ptr<SessionContext> s = MustCreate(p, options);
  ASSERT_EQ(s->context().blocks().num_blocks(), 2u);
  MustExecute(*s, "cqa global Q(x) :- R(x, y, z)");
  const BlockCacheStats before = s->cache()->stats();
  const std::string count = MustExecute(*s, "count global");
  const BlockCacheStats after = s->cache()->stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 2);
  EXPECT_EQ(count, MustExecute(*MustCreate(p), "count global"));
}

// One block: a 70-fact clique whose priority orders every pair.  The
// total-priority rule builds its one optimal block-repair, the greedy
// one, with no block admission, so count, enumeration and cqa answer
// exactly past the 63-fact exhaustive cap, and under `budget max-block
// 2` too.
TEST(ServeSessionTest, TotalPriorityCliqueAnswersPastTheBlockCap) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  constexpr int kFacts = 70;
  for (int i = 0; i < kFacts; ++i) {
    spec.facts.push_back("f" + std::to_string(i) + ": k, v" +
                         std::to_string(i));
    for (int k = i + 1; k < kFacts; ++k) {
      spec.priorities.push_back("f" + std::to_string(i) + " > f" +
                                std::to_string(k));
    }
  }
  const PreferredRepairProblem p = testing_util::MakeProblem(spec);
  std::unique_ptr<SessionContext> s = MustCreate(p);
  ASSERT_EQ(s->context().blocks().num_blocks(), 1u);
  ResourceBudget max_block;
  max_block.max_block = 2;
  for (const std::string budget : {"budget", "budget max-block 2"}) {
    SCOPED_TRACE(budget);
    MustExecute(*s, budget);
    EXPECT_EQ(MustExecute(*s, "count global"), "count global: 1");
    EXPECT_EQ(MustExecute(*s, "count pareto"), "count pareto: 1");
    EXPECT_EQ(MustExecute(*s, "cqa global Q(y) :- R(x, y)"),
              "cqa global: 1 answer(s)\n  (v0)\npath: categorical");
    ResourceGovernor governor(budget == "budget" ? ResourceBudget{}
                                                 : max_block);
    ProblemContext& ctx = s->context();
    ctx.set_governor(&governor);
    const std::vector<DynamicBitset> all =
        AllOptimalRepairs(ctx, RepairSemantics::kGlobal);
    ctx.set_governor(nullptr);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all.front(), testing_util::Sub(*p.instance, {"f0"}));
  }
}

TEST(ServeSessionTest, RevivalRejectsChangedContent) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  MustExecute(*s, "delete b3");
  Result<SessionOp> op = ParseSessionOp("insert b3 R(kb, CHANGED)");
  ASSERT_TRUE(op.ok());
  Result<std::string> reply = s->Execute(*op);
  EXPECT_FALSE(reply.ok());
}

TEST(ServeSessionTest, PreferInvalidatesWithoutChangingBlocks) {
  PreferredRepairProblem p = FixtureProblem();
  SessionOptions options;
  options.cache_capacity = 64;
  std::unique_ptr<SessionContext> s = MustCreate(p, options);
  const std::string cold = MustExecute(*s, "check global");
  MustExecute(*s, "prefer b2 > b3");
  ExpectMatchesRebuild(*s, options, "prefer");
  // And the new edge is really in force, not served stale from cache.
  const std::string after = MustExecute(*s, "check global");
  std::unique_ptr<SessionContext> fresh =
      MustCreate(*ParseProblemText(s->SerializeLive()));
  EXPECT_EQ(after, MustExecute(*fresh, "check global"));
  (void)cold;
}

// A cqa reply after edits inside one block — a prefer, then a delete and
// a re-insert — equals a fresh session's built from the serialized live
// state, with the block-solve cache off and on.  The session keeps no
// solved block state but the cache, which keys an edited block by its
// new fingerprint; the re-insert restores the block's first shape, so
// the cache-on session serves it from the entry the first cqa stored.
TEST(ServeSessionTest, CqaAfterBlockEditsMatchesRebuild) {
  const std::vector<std::string> cqa = {"cqa global Q(x) :- R(x, y)",
                                        "cqa global Q() :- R(x, y)"};
  for (size_t capacity : {size_t{0}, size_t{64}}) {
    SessionOptions options;
    options.cache_capacity = capacity;
    std::unique_ptr<SessionContext> s = MustCreate(FixtureProblem(), options);
    const std::string note = "cache=" + std::to_string(capacity);
    ExpectMatchesRebuild(*s, options, note + " before edits", cqa);
    // b1 > b2 > b3 leaves {b1} the b-block's one optimal block-repair.
    MustExecute(*s, "prefer b2 > b3");
    const std::string categorical = MustExecute(*s, cqa[0]);
    EXPECT_NE(categorical.find("path: categorical"), std::string::npos)
        << note << ": " << categorical;
    ExpectMatchesRebuild(*s, options, note + " after prefer", cqa);
    MustExecute(*s, "delete b3");
    MustExecute(*s, "insert b3 R(kb, y3)");
    ExpectMatchesRebuild(*s, options, note + " after delete and insert",
                         cqa);
  }
}

// The queries a session answers under a cross-conflict priority
// (completion semantics and construct need a conflict-bounded one).
std::vector<std::string> CcpQueries() {
  return {
      "check global",
      "check pareto",
      "count global",
      "count pareto",
      "cqa global Q(x) :- R(x, y)",
      "cqa pareto Q(x, y) :- R(x, y)",
      "cqa global Q() :- R(x, \"y1\")",
      "cqa repairs Q(y) :- R(x, y)",
  };
}

// A session with a block cache and a priority edge between blocks: the
// edge joins the two blocks, so every query is answered (no refusal)
// through the cache exactly as the cache-off session answers it, before
// and after the edits that move the edge's blocks around.
TEST(ServeSessionTest, CrossBlockPriorityWithCacheMatchesCacheOff) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: a, 1", "a2: a, 2", "b1: b, 1", "b2: b, 2"};
  spec.priorities = {"a1 > b2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.j = testing_util::Sub(*p.instance, {"a1", "b1"});
  SessionOptions cached;
  cached.cache_capacity = 64;
  std::unique_ptr<SessionContext> with_cache = MustCreate(p, cached);
  std::unique_ptr<SessionContext> without_cache = MustCreate(p);
  const auto reply = [](SessionContext& session, const std::string& line) {
    Result<SessionOp> op = ParseSessionOp(line);
    EXPECT_TRUE(op.ok()) << line;
    Result<std::string> out = session.Execute(*op);
    return out.ok() ? *out : "error: " + out.status().ToString();
  };
  const std::vector<std::string> script = {
      "check global",
      "cqa repairs Q(x, y) :- R(x, y)",
      "insert a3 R(a, 3)",
      "count global",
      "delete b2",
      "check global",
      "count global",
      "cqa global Q(x, y) :- R(x, y)",
      "prefer a3 > a2",
      "check global",
      "count pareto",
      "insert b2 R(b, 2)",
      "check global",
      "count global",
      "cqa repairs Q(x, y) :- R(x, y)",
  };
  for (const std::string& line : script) {
    const std::string answer = reply(*with_cache, line);
    EXPECT_EQ(answer, reply(*without_cache, line)) << line;
    EXPECT_EQ(answer.find("error:"), std::string::npos) << line << ": "
                                                         << answer;
  }
  EXPECT_GT(with_cache->cache()->stats().hits +
                with_cache->cache()->stats().misses,
            0u);
}

// An insert that gives a free fact its first conflict, where the free
// fact carries a priority edge into another block: the new block and
// that block join.  Every answer equals a rebuild's, cache off and on.
TEST(ServeSessionTest, CcpInsertJoinsBlocksThroughFreeFact) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: ka, x1", "a2: ka, x2", "b1: kb, y1", "b2: kb, y2",
                "c1: kc, z1"};
  // c1 is free, so its edge into the b-block joins nothing yet.
  spec.priorities = {"a1 > a2", "c1 > b1"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.j = testing_util::Sub(*p.instance, {"a2", "b1", "c1"});
  for (size_t capacity : {size_t{0}, size_t{64}}) {
    const std::string note = "cache=" + std::to_string(capacity);
    SessionOptions options;
    options.cache_capacity = capacity;
    std::unique_ptr<SessionContext> s = MustCreate(p, options);
    EXPECT_EQ(s->context().blocks().num_blocks(), 2u) << note;
    ExpectMatchesRebuild(*s, options, note + " before the insert",
                         CcpQueries());
    const std::string reply = MustExecute(*s, "insert c2 R(kc, z2)");
    EXPECT_NE(reply.find("block of 4"), std::string::npos)
        << note << ": " << reply;
    EXPECT_EQ(s->context().blocks().num_blocks(), 2u) << note;
    ExpectMatchesRebuild(*s, options, note + " after the insert",
                         CcpQueries());
  }
}

// A delete that splits a block two priority edges joined: removing the
// a-block's bridge fact leaves the rest of the a-block and the b-block
// apart.  Every answer equals a rebuild's, cache off and on.
TEST(ServeSessionTest, CcpDeleteSplitsJoinedBlock) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: ka, x1", "a2: ka, x2", "a3: ka, x3", "b1: kb, y1",
                "b2: kb, y2", "c1: kc, z1"};
  spec.priorities = {"a1 > b1", "b2 > a1", "a2 > a3", "c1 > a3"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.j = testing_util::Sub(*p.instance, {"a1", "b2", "c1"});
  for (size_t capacity : {size_t{0}, size_t{64}}) {
    const std::string note = "cache=" + std::to_string(capacity);
    SessionOptions options;
    options.cache_capacity = capacity;
    std::unique_ptr<SessionContext> s = MustCreate(p, options);
    EXPECT_EQ(s->context().blocks().num_blocks(), 1u) << note;
    ExpectMatchesRebuild(*s, options, note + " before the delete",
                         CcpQueries());
    const std::string reply = MustExecute(*s, "delete a1");
    EXPECT_NE(reply.find("2 block(s) remain"), std::string::npos)
        << note << ": " << reply;
    ExpectMatchesRebuild(*s, options, note + " after the delete",
                         CcpQueries());
    MustExecute(*s, "insert a1 R(ka, x1)");
    ExpectMatchesRebuild(*s, options, note + " after the revival",
                         CcpQueries());
  }
}

TEST(ServeSessionTest, PreferRejectsCycles) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  // The fixture has b1 ≻ b2 already; closing the triangle must fail.
  MustExecute(*s, "prefer b2 > b3");
  Result<SessionOp> op = ParseSessionOp("prefer b3 > b1");
  ASSERT_TRUE(op.ok());
  Result<std::string> reply = s->Execute(*op);
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("cycle"), std::string::npos)
      << reply.status().ToString();
}

TEST(ServeSessionTest, PreferRejectsNonConflictingPair) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  Result<SessionOp> op = ParseSessionOp("prefer a1 > b1");
  ASSERT_TRUE(op.ok());
  Result<std::string> reply = s->Execute(*op);
  EXPECT_FALSE(reply.ok());
}

TEST(ServeSessionTest, BudgetOpGovernsFollowingQueries) {
  PreferredRepairProblem p = FixtureProblem();
  std::unique_ptr<SessionContext> s = MustCreate(p);
  MustExecute(*s, "budget max-nodes 1");
  const std::string reply = MustExecute(*s, "count global");
  EXPECT_NE(reply.find(">="), std::string::npos) << reply;
  MustExecute(*s, "budget");
  const std::string exact = MustExecute(*s, "count global");
  EXPECT_EQ(exact.find(">="), std::string::npos) << exact;
}

// Under an unlimited budget no governor is installed, so a Boolean cqa
// that the 63-fact hard cap leaves unknown must not print that
// governor's "within budget": it names the oversized block, as the
// non-Boolean reply does.
TEST(ServeSessionTest, UngovernedBooleanCqaNamesTheOversizedBlock) {
  ProblemSpec spec;
  spec.arity = 3;
  spec.fds = {"1 -> 2"};
  for (int i = 0; i < 64; ++i) {
    spec.facts.push_back("f" + std::to_string(i) + ": k, v" +
                         std::to_string(i) + ", z");
  }
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  std::unique_ptr<SessionContext> s = MustCreate(p);
  const std::string unknown =
      "unknown (repair enumeration abandoned (oversized block))";
  const std::string boolean = MustExecute(*s, "cqa global Q() :- R(x, y, z)");
  EXPECT_NE(boolean.find(unknown), std::string::npos) << boolean;
  const std::string tuples = MustExecute(*s, "cqa global Q(x) :- R(x, y, z)");
  EXPECT_NE(tuples.find(unknown), std::string::npos) << tuples;
}

// ---- Randomized differential battery -------------------------------

struct BatteryConfig {
  size_t threads;
  size_t cache_capacity;
  bool governed;
  const char* name;
};

void RunBattery(const BatteryConfig& config, uint64_t seed) {
  EditScriptOptions gen;
  gen.shards = 6;
  gen.facts_per_shard = 3;
  gen.num_ops = 60;
  gen.seed = seed;
  EditScriptWorkload workload = MakeEditScriptWorkload(gen);

  SessionOptions options;
  options.threads = config.threads;
  options.cache_capacity = config.cache_capacity;
  std::unique_ptr<SessionContext> session =
      MustCreate(workload.problem, options);
  if (config.governed) {
    MustExecute(*session, "budget max-nodes 100000");
  }
  size_t edits_since_check = 0;
  for (size_t i = 0; i < workload.ops.size(); ++i) {
    const std::string& line = workload.ops[i];
    SCOPED_TRACE(config.name + std::string(" op ") + std::to_string(i) +
                 ": " + line);
    MustExecute(*session, line);
    if (::testing::Test::HasFailure()) {
      return;
    }
    if (++edits_since_check >= 7) {
      edits_since_check = 0;
      ExpectMatchesRebuild(*session, options,
                           config.name + std::string(" after op ") +
                               std::to_string(i));
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
  ExpectMatchesRebuild(*session, options, config.name + std::string(" end"));
}

TEST(ServeBatteryTest, SerialNoCache) {
  RunBattery({1, 0, false, "serial/nocache"}, 7);
}

TEST(ServeBatteryTest, SerialCached) {
  RunBattery({1, 128, false, "serial/cache"}, 7);
}

TEST(ServeBatteryTest, ParallelNoCache) {
  RunBattery({8, 0, false, "threads8/nocache"}, 11);
}

TEST(ServeBatteryTest, ParallelCached) {
  RunBattery({8, 128, false, "threads8/cache"}, 11);
}

TEST(ServeBatteryTest, GovernedCached) {
  RunBattery({1, 128, true, "governed/cache"}, 13);
}

// Cache on vs cache off must agree byte for byte on the same script —
// the node-replay contract extended to the serving layer.
TEST(ServeBatteryTest, CacheOnOffAgree) {
  EditScriptOptions gen;
  gen.shards = 5;
  gen.facts_per_shard = 3;
  gen.num_ops = 50;
  gen.seed = 23;
  EditScriptWorkload workload = MakeEditScriptWorkload(gen);
  SessionOptions with_cache;
  with_cache.cache_capacity = 128;
  std::unique_ptr<SessionContext> cached =
      MustCreate(workload.problem, with_cache);
  std::unique_ptr<SessionContext> uncached = MustCreate(workload.problem);
  for (size_t i = 0; i < workload.ops.size(); ++i) {
    const std::string& line = workload.ops[i];
    SCOPED_TRACE("op " + std::to_string(i) + ": " + line);
    EXPECT_EQ(MustExecute(*cached, line), MustExecute(*uncached, line));
  }
  for (const std::string& query : AllQueries()) {
    EXPECT_EQ(MustExecute(*cached, query), MustExecute(*uncached, query))
        << query;
  }
}

// ---- Generator sanity ----------------------------------------------

TEST(ServeScriptTest, GeneratedScriptsExecuteCleanly) {
  EditScriptOptions gen;
  gen.shards = 4;
  gen.facts_per_shard = 2;
  gen.num_ops = 80;
  gen.seed = 99;
  EditScriptWorkload workload = MakeEditScriptWorkload(gen);
  EXPECT_EQ(workload.ops.size(), gen.num_ops);
  std::unique_ptr<SessionContext> session = MustCreate(workload.problem);
  for (const std::string& line : workload.ops) {
    MustExecute(*session, line);  // every generated op must succeed
  }
}

TEST(ServeScriptTest, ScriptsAreDeterministic) {
  EditScriptOptions gen;
  gen.num_ops = 40;
  gen.seed = 5;
  EXPECT_EQ(MakeEditScriptWorkload(gen).ops, MakeEditScriptWorkload(gen).ops);
}

}  // namespace
}  // namespace prefrep
