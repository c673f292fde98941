// Allocation guards for the exhaustive repair walk and the problem
// parser.  Timing noise hides regressions of about 10%, but heap traffic
// is a count: this binary replaces the global operator new and counts
// the calls made during one call.
//
// The walk: one governed ForEachRepairWithin must make the same small
// number of allocations on two block shapes whose search trees differ
// 8x.  One ExhaustiveBlockSolver().OptimalBlockRepairs lists the block's
// block-repairs, one entry each, and filters them pairwise; beyond that
// list's and its one-member result's growth it must allocate the same
// on both shapes, whose filters differ 39x in nodes.  A walk that allocated per search node, or a
// filter that allocated per pair test, would scale with the block.
//
// Block answers: ExhaustiveBlockSolver().OptimalBlockRepairs returns one
// word per optimal block-repair, so beyond the growth of its list and
// of its result vector it allocates the same on a block with 20 optimal
// block-repairs as on one with 189.  A session refresh after one edit
// rebuilds the block view with one buffer per block (its fact list)
// plus a constant.
//
// The parser: ParseProblemText on a large generated text must stay under
// a few allocations per input line — what the parsed instance, its
// dictionary, labels and priority lists need, with no string copied per
// line, fact, constant or label.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <string>

#include "gen/edit_script.h"
#include "gen/hard_workloads.h"
#include "gen/random_instance.h"
#include "io/ops_format.h"
#include "io/text_format.h"
#include "model/context.h"
#include "repair/audit.h"
#include "repair/block_solver.h"
#include "repair/exhaustive.h"
#include "serve/session.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace prefrep {
namespace {

// An upper bound on the allocations one call may make, whatever its
// search tree: the walk's table and arena, plus the caller's bitsets.
constexpr uint64_t kMaxAllocationsPerCall = 8;

template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

// An armed budget that never fires, so the governor counts nodes.
ResourceBudget CountingBudget() {
  ResourceBudget budget;
  budget.max_nodes = uint64_t{1} << 40;
  return budget;
}

struct Measurement {
  uint64_t allocations = 0;
  uint64_t nodes = 0;
  uint64_t result = 0;  // repairs walked, or optimal block-repairs counted
};

// One shard of MakeHardShardedWorkload(1, cliques, clique_size): a
// single S1 block of cliques × clique_size facts.
struct Shard {
  explicit Shard(size_t cliques, size_t clique_size)
      : problem(MakeHardShardedWorkload(1, cliques, clique_size)),
        ctx(*problem.instance, *problem.priority) {
    PREFREP_CHECK(ctx.blocks().num_blocks() == 1);
  }
  const Block& block() const { return ctx.blocks().block(0); }

  PreferredRepairProblem problem;
  ProblemContext ctx;
};

Measurement MeasureWalk(size_t cliques, size_t clique_size) {
  Shard shard(cliques, clique_size);
  ResourceGovernor governor(CountingBudget());
  Measurement m;
  const std::function<bool(const DynamicBitset&)> count_repair =
      [&m](const DynamicBitset&) {
        ++m.result;
        return true;
      };
  m.allocations = AllocationsDuring([&] {
    ForEachRepairWithin(shard.ctx.conflict_graph(), shard.block().fact_list,
                        governor, count_repair);
  });
  m.nodes = governor.nodes_spent();
  return m;
}

Measurement MeasureFilter(size_t cliques, size_t clique_size) {
  Shard shard(cliques, clique_size);
  ResourceGovernor governor(CountingBudget());
  shard.ctx.set_governor(&governor);
  Measurement m;
  m.allocations = AllocationsDuring([&] {
    m.result = ExhaustiveBlockSolver()
                   .OptimalBlockRepairs(shard.ctx, shard.block())
                   .size();
  });
  m.nodes = governor.nodes_spent();
  return m;
}

TEST(AllocationGuardTest, RepairWalkAllocatesPerCallNotPerNode) {
  const Measurement small = MeasureWalk(3, 3);
  const Measurement large = MeasureWalk(4, 4);
  // (s-1)^(c-1) · (s-1+c) repairs (gen/hard_workloads.h).
  EXPECT_EQ(small.result, 20u);
  EXPECT_EQ(large.result, 189u);
  EXPECT_GT(large.nodes, 5 * small.nodes);
  EXPECT_EQ(small.allocations, large.allocations)
      << "nodes " << small.nodes << " vs " << large.nodes;
  EXPECT_LE(large.allocations, kMaxAllocationsPerCall);
}

// The allocations a vector of words makes while growing to `n` entries.
uint64_t GrowthAllocations(size_t n) {
  return AllocationsDuring([n] {
    std::vector<uint64_t> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(i);
    }
  });
}

TEST(AllocationGuardTest, ExhaustiveFilterAllocatesPerCallNotPerNode) {
  const Measurement small = MeasureFilter(3, 3);
  const Measurement large = MeasureFilter(4, 4);
  // Member 1 of each clique dominates the rest, so the all-member-1
  // block-repair is the only optimal one.
  EXPECT_EQ(small.result, 1u);
  EXPECT_EQ(large.result, 1u);
  EXPECT_GT(large.nodes, 10 * small.nodes);
  // The filter's list holds the 20 and 189 block-repairs (see
  // RepairWalkAllocatesPerCallNotPerNode), and the result its one
  // member.
  const uint64_t small_own =
      small.allocations - GrowthAllocations(20) - GrowthAllocations(1);
  const uint64_t large_own =
      large.allocations - GrowthAllocations(189) - GrowthAllocations(1);
  EXPECT_EQ(small_own, large_own)
      << "nodes " << small.nodes << " vs " << large.nodes;
  EXPECT_LE(large_own, kMaxAllocationsPerCall);
}

// The one block of MakeHardShardedWorkload(1, cliques, clique_size)
// with its priority edges dropped, so every block-repair is optimal.
Measurement MeasureOptimalSet(size_t cliques, size_t clique_size) {
  const PreferredRepairProblem problem =
      MakeHardShardedWorkload(1, cliques, clique_size);
  const PriorityRelation no_edges(problem.instance.get());
  ProblemContext ctx(*problem.instance, no_edges);
  ResourceGovernor governor(CountingBudget());
  ctx.set_governor(&governor);
  const Block& b = ctx.blocks().block(0);
  Measurement m;
  m.allocations = AllocationsDuring([&] {
    m.result = ExhaustiveBlockSolver().OptimalBlockRepairs(ctx, b).size();
  });
  m.nodes = governor.nodes_spent();
  return m;
}

TEST(AllocationGuardTest, OptimalSetAllocatesPerCallNotPerRepair) {
  const Measurement small = MeasureOptimalSet(3, 3);
  const Measurement large = MeasureOptimalSet(4, 4);
  EXPECT_EQ(small.result, 20u);
  EXPECT_EQ(large.result, 189u);
  // Every block-repair is optimal, so the filter's list and the result
  // both grow to the block's block-repair count.
  const uint64_t small_own = small.allocations - 2 * GrowthAllocations(20);
  const uint64_t large_own = large.allocations - 2 * GrowthAllocations(189);
  EXPECT_EQ(small_own, large_own)
      << small.allocations << " vs " << large.allocations << " allocations";
  EXPECT_LE(large_own, kMaxAllocationsPerCall);
}

// The constant part of a session refresh: the view's own vectors, the
// decomposition and context objects, and the fingerprints of the
// blocks the edit changed.
constexpr uint64_t kMaxRefreshAllocationsBeyondBlocks = 40;

TEST(AllocationGuardTest, SessionRefreshAllocatesOncePerBlock) {
  if (audit::Enabled()) {
    GTEST_SKIP() << "audit builds compare every refresh with a rebuild";
  }
  EditScriptOptions options;
  options.shards = 64;
  options.facts_per_shard = 4;
  const EditScriptWorkload workload = MakeEditScriptWorkload(options);
  SessionOptions session_options;
  session_options.threads = 1;
  session_options.cache_capacity = 4096;
  Result<std::unique_ptr<SessionContext>> session =
      SessionContext::Create(workload.problem, session_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto execute = [&](const std::string& line) {
    Result<SessionOp> op = ParseSessionOp(line);
    ASSERT_TRUE(op.ok()) << line;
    ASSERT_TRUE((*session)->Execute(*op).ok()) << line;
  };
  // Tombstones first, so the refresh below runs on a universe larger
  // than the live facts.
  for (size_t shard = 0; shard < 8; ++shard) {
    execute("delete s" + std::to_string(shard) + "f0");
  }
  (void)(*session)->context();
  execute("delete s8f0");
  const uint64_t allocations =
      AllocationsDuring([&] { (void)(*session)->context(); });
  const size_t blocks = (*session)->context().blocks().num_blocks();
  EXPECT_EQ(blocks, 64u);
  EXPECT_LE(allocations, blocks + kMaxRefreshAllocationsBeyondBlocks)
      << allocations << " allocations for " << blocks << " blocks";
}

// A bulk-check-shaped problem text: R(3) with FD 1 → 2 (many small
// blocks) beside S(2) with two keys (few large blocks), 5,000 facts.
std::string OneFdAndTwoKeysText() {
  Schema schema;
  const RelId r = schema.MustAddRelation("R", 3);
  schema.MustAddFd(r, FD(AttrSet{1}, AttrSet{2}));
  const RelId s = schema.MustAddRelation("S", 2);
  schema.MustAddFd(s, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(s, FD(AttrSet{2}, AttrSet{1}));
  RandomProblemOptions options;
  options.facts_per_relation = 2500;
  options.domain_size = options.facts_per_relation / 4 + 2;
  options.priority_density = 0.6;
  options.j_policy = JPolicy::kHighPriorityRepair;
  options.seed = 11;
  return ProblemToText(GenerateRandomProblem(schema, options));
}

// Fewer than this many allocations per input line (fact, prefer and j
// lines alike).  The parser keeps lines, split pieces and constants as
// views of the input; what remains is the parsed problem's own storage.
constexpr double kMaxAllocationsPerLine = 4.0;

TEST(AllocationGuardTest, ParsingAllocatesAFewTimesPerLine) {
  const std::string text = OneFdAndTwoKeysText();
  const auto lines =
      static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
  ASSERT_GT(lines, 12000u);
  std::optional<Result<PreferredRepairProblem>> parsed;
  const uint64_t allocations =
      AllocationsDuring([&] { parsed.emplace(ParseProblemText(text)); });
  ASSERT_TRUE(parsed->ok()) << parsed->status().ToString();
  EXPECT_LT(static_cast<double>(allocations),
            kMaxAllocationsPerLine * static_cast<double>(lines))
      << allocations << " allocations for " << lines << " lines";
}

}  // namespace
}  // namespace prefrep
