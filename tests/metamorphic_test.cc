// Metamorphic invariance of the solving stack: the answers of checking,
// counting and enumeration are properties of the abstract prioritizing
// instance (I, ≻) and J — not of fact insertion order, constant
// spelling, or relation declaration order.  Each test rebuilds a random
// problem under a semantics-preserving transformation and asserts the
// outputs agree modulo the fact-id mapping, in serial (threads = 1) and
// parallel (threads = 8) execution:
//
//   * fact reordering     — facts inserted in a shuffled order;
//   * value renaming      — every constant consistently renamed (an
//                           isomorphism of the value domain);
//   * block permutation   — relations declared in reverse order, which
//                           permutes relation ids and hence the order
//                           blocks are enumerated and scheduled in.
//
// Verdicts and counts must be equal outright; repair sets must be equal
// as sets of (mapped) fact sets.  Witnesses may legitimately differ
// across a fact-id permutation (the algorithms are deterministic in fact
// ids), so each reported witness is instead re-verified definitionally.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "base/simd.h"
#include "cache/block_cache.h"
#include "classify/categoricity.h"
#include "conflicts/blocks.h"
#include "conflicts/conflicts.h"
#include "gen/hard_workloads.h"
#include "gen/random_instance.h"
#include "query/consistent_answers.h"
#include "repair/checker.h"
#include "repair/construct.h"
#include "repair/counting.h"
#include "test_util.h"

namespace prefrep {
namespace {

Schema RandomSchema(Rng* rng) {
  Schema schema;
  size_t num_relations = 1 + rng->NextBounded(2);
  for (size_t r = 0; r < num_relations; ++r) {
    int arity = 2 + static_cast<int>(rng->NextBounded(2));  // 2..3
    RelId rel = schema.MustAddRelation("R" + std::to_string(r), arity);
    size_t num_fds = rng->NextBounded(3);  // 0..2
    uint64_t full = (uint64_t{1} << arity) - 1;
    for (size_t i = 0; i < num_fds; ++i) {
      schema.MustAddFd(rel, FD(AttrSet::FromMask(rng->Next() & full),
                               AttrSet::FromMask(rng->Next() & full)));
    }
  }
  return schema;
}

PreferredRepairProblem RandomProblem(uint64_t seed) {
  Rng rng(seed * 52711 + 17);
  Schema schema = RandomSchema(&rng);
  RandomProblemOptions opts;
  opts.facts_per_relation = 6 + rng.NextBounded(4);
  opts.domain_size = 2 + rng.NextBounded(3);
  opts.priority_density = 0.3 + 0.5 * rng.NextDouble();
  opts.j_policy = static_cast<JPolicy>(rng.NextBounded(4));
  opts.seed = rng.Next();
  return GenerateRandomProblem(schema, opts);
}

/// A problem rebuilt under a transformation, with the fact-id mapping
/// (old id -> new id) needed to compare subinstances across the two.
struct Rebuilt {
  PreferredRepairProblem p;
  std::vector<FactId> map;
};

Rebuilt Rebuild(const PreferredRepairProblem& orig,
                const std::vector<FactId>& insertion,
                const std::vector<RelId>& rel_order,
                const std::function<std::string(const std::string&)>& rename) {
  const Schema& os = orig.instance->schema();
  Schema schema;
  for (RelId r : rel_order) {
    RelId nr = schema.MustAddRelation(os.relation_name(r), os.arity(r));
    for (const FD& fd : os.fds(r).fds()) {
      schema.MustAddFd(nr, fd);
    }
  }
  Rebuilt out;
  out.p = PreferredRepairProblem(std::move(schema));
  out.map.assign(orig.instance->num_facts(), kInvalidFactId);
  for (FactId old : insertion) {
    const Fact& f = orig.instance->fact(old);
    std::vector<std::string> constants;
    constants.reserve(f.values.size());
    for (ValueId v : f.values) {
      constants.push_back(rename(orig.instance->dict().Text(v)));
    }
    out.map[old] = out.p.instance->MustAddFact(
        os.relation_name(f.rel), constants, orig.instance->label(old));
  }
  out.p.InitPriority();
  for (const auto& edge : orig.priority->edges()) {
    out.p.priority->MustAdd(out.map[edge.first], out.map[edge.second]);
  }
  out.p.j = DynamicBitset(orig.instance->num_facts());
  orig.j.ForEach([&](size_t f) { out.p.j.set(out.map[f]); });
  return out;
}

std::vector<FactId> IdentityInsertion(const Instance& instance) {
  std::vector<FactId> order(instance.num_facts());
  for (FactId f = 0; f < order.size(); ++f) {
    order[f] = f;
  }
  return order;
}

std::vector<FactId> ShuffledInsertion(const Instance& instance, Rng* rng) {
  std::vector<FactId> order = IdentityInsertion(instance);
  for (size_t i = order.size(); i > 1; --i) {  // Fisher–Yates
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  return order;
}

std::vector<RelId> IdentityRelations(const Schema& schema) {
  std::vector<RelId> order(schema.num_relations());
  for (RelId r = 0; r < order.size(); ++r) {
    order[r] = r;
  }
  return order;
}

std::string KeepName(const std::string& s) { return s; }

/// Inverts a fact-id permutation: Rebuilt::map sends old ids to new
/// ids, but fingerprints of the rebuilt problem hold NEW ids and must
/// be canonicalized back into old-id space.
std::vector<FactId> Inverse(const std::vector<FactId>& map) {
  std::vector<FactId> inv(map.size(), kInvalidFactId);
  for (FactId old = 0; old < map.size(); ++old) {
    inv[map[old]] = old;
  }
  return inv;
}

/// A repair set as a canonical, id-mapped value: the sorted list of
/// sorted mapped fact-id vectors.  Equal for two runs iff they found
/// the same repairs up to the fact-id permutation.
std::vector<std::vector<FactId>> Canonical(
    const std::vector<DynamicBitset>& repairs,
    const std::vector<FactId>& map) {
  std::vector<std::vector<FactId>> out;
  out.reserve(repairs.size());
  for (const DynamicBitset& r : repairs) {
    std::vector<FactId> facts;
    r.ForEach([&](size_t f) { facts.push_back(map[f]); });
    std::sort(facts.begin(), facts.end());
    out.push_back(std::move(facts));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Everything a transformation must leave invariant, canonicalized
/// through the given fact-id mapping.
struct SemanticFingerprint {
  CheckResult::Verdict global = CheckResult::Verdict::kUnknown;
  bool pareto = false;
  bool completion = false;
  uint64_t count = 0;
  bool count_exact = false;
  std::vector<std::vector<FactId>> optimal_repairs;
  Categoricity categoricity = Categoricity::kUnknown;
  std::vector<FactId> unique;
};

SemanticFingerprint Fingerprint(const PreferredRepairProblem& problem,
                                const std::vector<FactId>& map,
                                size_t threads) {
  SemanticFingerprint fp;
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.set_parallelism(threads);
  RepairChecker checker(ctx);
  auto outcome = checker.CheckGloballyOptimal(problem.j);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (outcome.ok()) {
    fp.global = outcome->result.verdict;
    ConflictGraph cg(*problem.instance);
    EXPECT_EQ(testing_util::VerifyWitness(cg, *problem.priority, problem.j,
                                          outcome->result),
              "");
  }
  fp.pareto = checker.CheckParetoOptimal(problem.j).optimal;
  fp.completion = checker.CheckCompletionOptimal(problem.j).optimal;
  BoundedCount count = CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
  fp.count = count.lower_bound;
  fp.count_exact = count.exact;
  fp.optimal_repairs =
      Canonical(AllOptimalRepairs(ctx, RepairSemantics::kGlobal), map);
  const CategoricityResult categoricity =
      DecideCategoricity(ctx, RepairSemantics::kGlobal);
  fp.categoricity = categoricity.verdict;
  if (categoricity.verdict == Categoricity::kCategorical) {
    categoricity.repair.ForEach(
        [&](size_t f) { fp.unique.push_back(map[f]); });
    std::sort(fp.unique.begin(), fp.unique.end());
  }
  return fp;
}

void ExpectEqualFingerprints(const SemanticFingerprint& a,
                             const SemanticFingerprint& b,
                             const std::string& what) {
  EXPECT_EQ(a.global, b.global) << what;
  EXPECT_EQ(a.pareto, b.pareto) << what;
  EXPECT_EQ(a.completion, b.completion) << what;
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.count_exact, b.count_exact) << what;
  EXPECT_EQ(a.optimal_repairs, b.optimal_repairs) << what;
  EXPECT_EQ(a.categoricity, b.categoricity) << what;
  EXPECT_EQ(a.unique, b.unique) << what;
}

class MetamorphicTest : public ::testing::TestWithParam<uint64_t> {};

// Identity mapping for the original problem: fingerprints of the
// original are canonicalized through old ids mapped to themselves.
std::vector<FactId> SelfMap(const Instance& instance) {
  return IdentityInsertion(instance);
}

TEST_P(MetamorphicTest, FactReorderingInvariant) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  Rng rng(GetParam() * 131071 + 29);
  Rebuilt shuffled =
      Rebuild(problem, ShuffledInsertion(*problem.instance, &rng),
              IdentityRelations(problem.instance->schema()), KeepName);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ExpectEqualFingerprints(
        Fingerprint(problem, SelfMap(*problem.instance), threads),
        Fingerprint(shuffled.p, Inverse(shuffled.map), threads),
        "fact reordering, threads=" + std::to_string(threads) +
            " seed=" + std::to_string(GetParam()));
  }
}

TEST_P(MetamorphicTest, ValueRenamingInvariant) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  // Injective renaming; same insertion order, so fact ids coincide and
  // even witnesses must be bit-identical (checked via fingerprints of
  // both, which then share the identity mapping).
  Rebuilt renamed = Rebuild(
      problem, IdentityInsertion(*problem.instance),
      IdentityRelations(problem.instance->schema()),
      [](const std::string& s) { return "ren_" + s; });
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ExpectEqualFingerprints(
        Fingerprint(problem, SelfMap(*problem.instance), threads),
        Fingerprint(renamed.p, Inverse(renamed.map), threads),
        "value renaming, threads=" + std::to_string(threads) +
            " seed=" + std::to_string(GetParam()));
  }
}

TEST_P(MetamorphicTest, BlockPermutationInvariant) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  std::vector<RelId> reversed = IdentityRelations(problem.instance->schema());
  std::reverse(reversed.begin(), reversed.end());
  // Reversed relation ids permute the relation-grouped block order the
  // serial merge walks (and the largest-first schedule ties).
  Rebuilt permuted = Rebuild(problem, IdentityInsertion(*problem.instance),
                             reversed, KeepName);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ExpectEqualFingerprints(
        Fingerprint(problem, SelfMap(*problem.instance), threads),
        Fingerprint(permuted.p, Inverse(permuted.map), threads),
        "block permutation, threads=" + std::to_string(threads) +
            " seed=" + std::to_string(GetParam()));
  }
}

/// Categoricity as a metamorphic invariant: the verdict, the unique
/// optimal repair (when categorical, canonicalized through the fact-id
/// mapping) and the CQA route taken are all properties of the abstract
/// prioritizing instance, so fact reordering, value renaming and block
/// permutation must leave them unchanged at every thread count.
std::string CategoricityFingerprint(const PreferredRepairProblem& problem,
                                    const std::vector<FactId>& map,
                                    size_t threads) {
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.set_parallelism(threads);
  std::string out;
  for (RepairSemantics sem :
       {RepairSemantics::kGlobal, RepairSemantics::kPareto,
        RepairSemantics::kCompletion}) {
    CategoricityResult result = DecideCategoricity(ctx, sem);
    out += CategoricityName(result.verdict);
    if (result.verdict == Categoricity::kCategorical) {
      std::vector<FactId> facts;
      result.repair.ForEach([&](size_t f) { facts.push_back(map[f]); });
      std::sort(facts.begin(), facts.end());
      out += "=";
      for (FactId f : facts) {
        out += std::to_string(f) + ",";
      }
    }
    out += ";";
  }
  // The route a boolean CQA probe takes (and its answer) must be
  // invariant too — the pre-pass decision may not depend on
  // representation.
  const Schema& schema = problem.instance->schema();
  std::string body = std::string(schema.relation_name(0)) + "(";
  for (int a = 0; a < schema.arity(0); ++a) {
    body += a ? ", x" : "x";
    body += std::to_string(a);
  }
  auto query = ConjunctiveQuery::Parse("Q() :- " + body + ")");
  EXPECT_TRUE(query.ok());
  CqaPath path = CqaPath::kEnumeration;
  CqaOptions options;
  options.path = &path;
  Trilean certain =
      CertainlyTrueBounded(ctx, *query, AnswerSemantics::kGlobal, options);
  out += std::string(CqaPathName(path)) + "/" +
         std::to_string(static_cast<int>(certain));
  return out;
}

TEST_P(MetamorphicTest, CategoricityInvariant) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  Rng rng(GetParam() * 262147 + 41);
  Rebuilt shuffled =
      Rebuild(problem, ShuffledInsertion(*problem.instance, &rng),
              IdentityRelations(problem.instance->schema()), KeepName);
  Rebuilt renamed = Rebuild(
      problem, IdentityInsertion(*problem.instance),
      IdentityRelations(problem.instance->schema()),
      [](const std::string& s) { return "cat_" + s; });
  std::vector<RelId> reversed = IdentityRelations(problem.instance->schema());
  std::reverse(reversed.begin(), reversed.end());
  Rebuilt permuted = Rebuild(problem, IdentityInsertion(*problem.instance),
                             reversed, KeepName);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const std::string original =
        CategoricityFingerprint(problem, SelfMap(*problem.instance), threads);
    const std::string suffix = " threads=" + std::to_string(threads) +
                               " seed=" + std::to_string(GetParam());
    EXPECT_EQ(original,
              CategoricityFingerprint(shuffled.p, Inverse(shuffled.map),
                                      threads))
        << "fact reorder" << suffix;
    EXPECT_EQ(original,
              CategoricityFingerprint(renamed.p, Inverse(renamed.map),
                                      threads))
        << "value rename" << suffix;
    EXPECT_EQ(original,
              CategoricityFingerprint(permuted.p, Inverse(permuted.map),
                                      threads))
        << "block permute" << suffix;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicTest,
                         ::testing::Range<uint64_t>(1, 31));

// ---- Cache-on/off differential --------------------------------------
//
// The block-solve cache (cache/block_cache.h) promises byte-identical
// outputs: installing it must change wall-clock time and nothing else.
// These tests run the full solving stack cache-off, cache-on-cold and
// cache-on-warm (a rerun against the already-populated table) over the
// same problems at threads = 1/2/8, ungoverned and under node-space
// budgets, and compare every output — verdicts, witness bitsets,
// explanations, routes, counts, enumerated repair vectors in their raw
// order, constructed repairs, and the degradation report rendered as a
// string — for exact equality.  Cache traffic lives on the cache alone
// (BlockSolveCache::stats()), never in an answer.
//
// Deadline budgets are deliberately absent: a deadline fires on wall
// clock, which the cache exists to change, so deadline-governed runs
// are not part of the byte-identical contract (node budgets are).

std::string BitsetString(const DynamicBitset& b) {
  std::string out;
  b.ForEach([&](size_t f) { out += std::to_string(f) + ","; });
  return out;
}

/// Every output of one pass over the solving stack, stringified where
/// that makes mismatches readable.  Compared with plain ==.
struct DifferentialRecord {
  std::string check;
  std::vector<std::string> route;
  std::string degradation;
  uint64_t count = 0;
  bool count_exact = false;
  size_t count_unknown_blocks = 0;
  std::vector<DynamicBitset> optimal_repairs;  // raw enumeration order
  std::string constructed;

  bool operator==(const DifferentialRecord& other) const {
    return check == other.check && route == other.route &&
           degradation == other.degradation && count == other.count &&
           count_exact == other.count_exact &&
           count_unknown_blocks == other.count_unknown_blocks &&
           optimal_repairs == other.optimal_repairs &&
           constructed == other.constructed;
  }
};

/// One pass over the stack: exact global check, bounded count,
/// (ungoverned only) full enumeration, greedy construction.  `budget`
/// null means ungoverned; a fresh governor is built per call so runs
/// never share exhaustion state.
DifferentialRecord RunStack(const PreferredRepairProblem& problem,
                            size_t threads, BlockSolveCache* cache,
                            const ResourceBudget* budget) {
  DifferentialRecord rec;
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.set_parallelism(threads);
  ctx.set_block_cache(cache);
  ResourceGovernor governor(budget != nullptr ? *budget : ResourceBudget{});
  if (budget != nullptr) {
    ctx.set_governor(&governor);
  }
  RepairChecker checker(ctx);
  auto outcome = checker.CheckGloballyOptimal(problem.j);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (outcome.ok()) {
    rec.check = std::to_string(static_cast<int>(outcome->result.verdict)) +
                "|" + outcome->result.unknown_reason;
    if (outcome->result.witness.has_value()) {
      rec.check += "|" + BitsetString(outcome->result.witness->improvement) +
                   "|" + outcome->result.witness->explanation;
    }
    rec.route = outcome->route;
    rec.degradation = outcome->degradation.ToString();
  }
  {
    // Counting consumes budget too: give it its own governor so the
    // check's consumption does not bleed into the count (and vice
    // versa), keeping each comparison self-contained.
    ProblemContext count_ctx(*problem.instance, *problem.priority);
    count_ctx.set_parallelism(threads);
    count_ctx.set_block_cache(cache);
    ResourceGovernor count_governor(budget != nullptr ? *budget
                                                      : ResourceBudget{});
    if (budget != nullptr) {
      count_ctx.set_governor(&count_governor);
    }
    BoundedCount count =
        CountOptimalRepairsBounded(count_ctx, RepairSemantics::kGlobal);
    rec.count = count.lower_bound;
    rec.count_exact = count.exact;
    rec.count_unknown_blocks = count.unknown_blocks;
  }
  if (budget == nullptr) {
    rec.optimal_repairs = AllOptimalRepairs(ctx, RepairSemantics::kGlobal);
  }
  if (problem.priority->IsConflictBounded()) {
    ConstructOptions options;
    options.tie_break = TieBreak::kRandom;
    options.seed = 0x5eedULL;
    ProblemContext construct_ctx(*problem.instance, *problem.priority);
    construct_ctx.set_parallelism(threads);
    construct_ctx.set_block_cache(cache);
    ResourceGovernor construct_governor(budget != nullptr ? *budget
                                                          : ResourceBudget{});
    if (budget != nullptr) {
      construct_ctx.set_governor(&construct_governor);
    }
    Result<DynamicBitset> repair =
        TryConstructGloballyOptimalRepair(construct_ctx, options);
    rec.constructed = repair.ok() ? BitsetString(*repair)
                                  : repair.status().ToString();
  }
  return rec;
}

void ExpectCacheTransparent(const PreferredRepairProblem& problem,
                            const ResourceBudget* budget,
                            const std::string& what) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const std::string where = what + ", threads=" + std::to_string(threads);
    DifferentialRecord off = RunStack(problem, threads, nullptr, budget);
    BlockSolveCache cache;
    DifferentialRecord cold = RunStack(problem, threads, &cache, budget);
    DifferentialRecord warm = RunStack(problem, threads, &cache, budget);
    EXPECT_TRUE(off == cold) << "cold cache diverges: " << where;
    EXPECT_TRUE(off == warm) << "warm cache diverges: " << where;
  }
}

class CacheDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheDifferentialTest, RandomProblemsAreCacheTransparent) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  ExpectCacheTransparent(problem, nullptr,
                         "seed=" + std::to_string(GetParam()));
}

TEST_P(CacheDifferentialTest, GovernedRunsAreCacheTransparent) {
  // Node-space budgets picked to fire mid-solve on some seeds and not
  // others, covering served hits, refused hits at the firing boundary,
  // and degraded runs where nothing may be stored.
  PreferredRepairProblem problem = RandomProblem(GetParam());
  ResourceBudget nodes;
  nodes.max_nodes = 8 + (GetParam() % 5) * 37;
  ExpectCacheTransparent(problem, &nodes,
                         "nodes=" + std::to_string(nodes.max_nodes) +
                             " seed=" + std::to_string(GetParam()));
  ResourceBudget block_cap;
  block_cap.max_block = 2 + GetParam() % 4;
  ExpectCacheTransparent(problem, &block_cap,
                         "max_block=" + std::to_string(block_cap.max_block) +
                             " seed=" + std::to_string(GetParam()));
}

TEST_P(CacheDifferentialTest, ShardedHardWorkloadsAreCacheTransparent) {
  // The cache's target shape: identical hard shards (every block after
  // the first is a pure hit) and the distinct variant (every block
  // misses), ungoverned and with a budget that abandons later shards.
  for (bool distinct : {false, true}) {
    PreferredRepairProblem problem =
        MakeHardShardedWorkload(2 + GetParam() % 3, 3, 3, distinct);
    const std::string what = std::string("sharded distinct=") +
                             (distinct ? "1" : "0") +
                             " seed=" + std::to_string(GetParam());
    ExpectCacheTransparent(problem, nullptr, what);
    ResourceBudget nodes;
    nodes.max_nodes = 40 + (GetParam() % 7) * 61;
    ExpectCacheTransparent(problem, &nodes, what + " governed");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---- Columnar-vs-reference conflict differential --------------------
//
// The columnar rewrite (docs/memory-layout.md) replaced the production
// conflict join but kept two independent oracles alive: the O(n²)
// all-pairs scan and the pre-columnar nested-map join
// (AllConflictPairsHashedReference).  These tests pin the contract that
// the flat join, the graph built from it, and both oracles agree
// exactly — on the instance as parsed, under fact reordering, under
// value renaming, and with the SIMD kernel forced to its scalar
// fallback.  Block partitions are compared as canonical (id-mapped)
// set-of-sets.  Thread counts don't appear here because the join is
// serial by design; the thread-parameterized fingerprints above cover
// everything downstream of it at threads 1/2/8.

using PairList = std::vector<std::pair<FactId, FactId>>;

PairList MapPairs(const PairList& pairs, const std::vector<FactId>& map) {
  PairList out;
  out.reserve(pairs.size());
  for (const auto& [f, g] : pairs) {
    out.emplace_back(std::min(map[f], map[g]), std::max(map[f], map[g]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The block partition as a canonical value: sorted list of sorted
/// mapped fact lists, plus the mapped free facts.
std::vector<std::vector<FactId>> CanonicalBlocks(
    const Instance& instance, const std::vector<FactId>& map) {
  ConflictGraph cg(instance);
  BlockDecomposition blocks(cg);
  std::vector<std::vector<FactId>> out;
  for (const Block& b : blocks.blocks()) {
    std::vector<FactId> facts;
    facts.reserve(b.fact_list.size());
    for (FactId f : b.fact_list) {
      facts.push_back(map[f]);
    }
    std::sort(facts.begin(), facts.end());
    out.push_back(std::move(facts));
  }
  std::vector<FactId> free_facts;
  blocks.free_facts().ForEach(
      [&](size_t f) { free_facts.push_back(map[f]); });
  std::sort(free_facts.begin(), free_facts.end());
  out.push_back(std::move(free_facts));
  std::sort(out.begin(), out.end());
  return out;
}

class ConflictDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictDifferentialTest, JoinsAgreeWithOracles) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  const Instance& instance = *problem.instance;
  const PairList naive = AllConflictPairsNaive(instance);
  const PairList reference = AllConflictPairsHashedReference(instance);
  const PairList flat = AllConflictPairsFlat(instance);
  EXPECT_EQ(naive, reference) << "seed=" << GetParam();
  EXPECT_EQ(naive, flat) << "seed=" << GetParam();
  ConflictGraph cg(instance);
  EXPECT_EQ(cg.edges(), flat) << "seed=" << GetParam();
  // The scalar fallback must be a pure speed change.
  simd::SetForceScalar(true);
  const PairList scalar = AllConflictPairsFlat(instance);
  simd::SetForceScalar(false);
  EXPECT_EQ(flat, scalar) << "seed=" << GetParam();
}

TEST_P(ConflictDifferentialTest, PairsInvariantUnderReorderAndRename) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  Rng rng(GetParam() * 524287 + 7);
  Rebuilt shuffled =
      Rebuild(problem, ShuffledInsertion(*problem.instance, &rng),
              IdentityRelations(problem.instance->schema()), KeepName);
  Rebuilt renamed = Rebuild(
      problem, IdentityInsertion(*problem.instance),
      IdentityRelations(problem.instance->schema()),
      [](const std::string& s) { return "col_" + s; });
  const std::vector<FactId> self = SelfMap(*problem.instance);
  const PairList original = MapPairs(AllConflictPairsFlat(*problem.instance),
                                     self);
  EXPECT_EQ(original,
            MapPairs(AllConflictPairsFlat(*shuffled.p.instance),
                     Inverse(shuffled.map)))
      << "fact reorder, seed=" << GetParam();
  EXPECT_EQ(original,
            MapPairs(AllConflictPairsFlat(*renamed.p.instance),
                     Inverse(renamed.map)))
      << "value rename, seed=" << GetParam();
  const auto blocks = CanonicalBlocks(*problem.instance, self);
  EXPECT_EQ(blocks,
            CanonicalBlocks(*shuffled.p.instance, Inverse(shuffled.map)))
      << "fact reorder blocks, seed=" << GetParam();
  EXPECT_EQ(blocks,
            CanonicalBlocks(*renamed.p.instance, Inverse(renamed.map)))
      << "value rename blocks, seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictDifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace prefrep
