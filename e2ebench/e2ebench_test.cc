// Copyright (c) prefrep contributors.
// The benchmark's own tests: the session-reply failure classifier, and
// determinism — two short runs on one seed must report identical
// counters, and a held-out second seed must yield different inputs.

#include <gtest/gtest.h>

#include <string>

#include "reply.h"
#include "workloads.h"

namespace e2ebench {
namespace {

TEST(ClassifyReply, SaturatedCountWithNothingAbandonedIsAnAnswer) {
  const std::string reply =
      "count global: >= 18446744073709551615 (saturated) "
      "(0 block(s) abandoned)";
  EXPECT_EQ(ClassifyReplyText(reply), ReplyOutcome::kAnswer);
  EXPECT_EQ(AbandonedBlocks(reply), 0u);
}

TEST(ClassifyReply, CountWithAbandonedBlocksIsCut) {
  EXPECT_EQ(ClassifyReplyText("count pareto: >= 12 (3 block(s) abandoned)"),
            ReplyOutcome::kBudgetCut);
  EXPECT_EQ(AbandonedBlocks("count pareto: >= 12 (3 block(s) abandoned)"),
            3u);
}

TEST(ClassifyReply, UnknownVerdictsAreCut) {
  const std::string check =
      "check global: unknown\nreason: node budget of 20000 exhausted\n"
      "blocks: 5/6 solved exactly, 1 abandoned; nodes spent: 20001; cause: "
      "node budget of 20000 exhausted\n  block #2 (9 facts, 19000 nodes): "
      "node budget of 20000 exhausted";
  EXPECT_EQ(ClassifyReplyText(check), ReplyOutcome::kBudgetCut);
  EXPECT_EQ(AbandonedBlocks(check), 1u);
  EXPECT_EQ(ReportedNodes(check), 20001u);
  EXPECT_EQ(ClassifyReplyText("cqa global: unknown (node budget of 20000 "
                              "exhausted)\npath: enumeration"),
            ReplyOutcome::kBudgetCut);
  EXPECT_EQ(ClassifyReplyText("construct: unknown (node budget exhausted)"),
            ReplyOutcome::kBudgetCut);
}

TEST(ClassifyReply, KnownVerdictWithAnAbandonedBlockIsCut) {
  EXPECT_EQ(ClassifyReplyText("check global: not optimal\nwitness: {e1}\n"
                              "blocks: 3/4 solved exactly, 1 abandoned; "
                              "nodes spent: 7"),
            ReplyOutcome::kBudgetCut);
}

TEST(ClassifyReply, AnswersAndEdits) {
  EXPECT_EQ(ClassifyReplyText("check global: optimal"), ReplyOutcome::kAnswer);
  EXPECT_EQ(ClassifyReplyText("count global: 96"), ReplyOutcome::kAnswer);
  EXPECT_EQ(ClassifyReplyText("repair: {e1, e2}"), ReplyOutcome::kAnswer);
  // Answer tuples are data: a constant named "unknown" is no verdict.
  EXPECT_EQ(ClassifyReplyText("cqa repairs: 1 answer(s)\n  (unknown)\n"
                              "path: enumeration"),
            ReplyOutcome::kAnswer);
  EXPECT_EQ(ClassifyReplyText("ok deleted e7 (2 block(s) remain of its "
                              "block)"),
            ReplyOutcome::kAnswer);
  EXPECT_EQ(ReportedNodes("check global: optimal"), 0u);
}

TEST(ClassifyReply, ErrorStatusIsAnError) {
  const prefrep::Result<std::string> error =
      prefrep::Status::NotFound("no live fact labeled 'e9'");
  EXPECT_EQ(ClassifyReply(error), ReplyOutcome::kError);
  const prefrep::Result<std::string> ok = std::string("check global: optimal");
  EXPECT_EQ(ClassifyReply(ok), ReplyOutcome::kAnswer);
}

constexpr uint64_t kSeed = 1;
// Held out: used only here, to show the seed reaches the inputs.
constexpr uint64_t kHeldOutSeed = 2;

RunReport ShortTracedRun(const std::string& workload, uint64_t seed) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0.001;  // one pass per phase
  options.trace = true;
  options.work_dir = ::testing::TempDir();
  return RunWorkload(options);
}

TEST(Determinism, SameSeedSameCounters) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const RunReport first = ShortTracedRun(workload, kSeed);
    const RunReport second = ShortTracedRun(workload, kSeed);
    ASSERT_TRUE(first.correct) << first.failure;
    ASSERT_TRUE(second.correct) << second.failure;
    EXPECT_EQ(first.failed, 0u);
    ASSERT_FALSE(first.counters.empty());
    EXPECT_EQ(first.counters, second.counters);
    if (workload == "zipf-session") {
      for (const char* key : {"cache.hits", "cache.misses", "repair.nodes",
                              "serve.blocks_retired", "failed_ops",
                              "persist.wal_bytes"}) {
        EXPECT_EQ(first.counters.count(key), 1u) << key;
      }
    }
  }
}

TEST(Determinism, HeldOutSeedChangesTheInputs) {
  for (const std::string workload : {"bulk-check", "zipf-session"}) {
    SCOPED_TRACE(workload);
    const RunReport base = ShortTracedRun(workload, kSeed);
    const RunReport held_out = ShortTracedRun(workload, kHeldOutSeed);
    ASSERT_TRUE(held_out.correct) << held_out.failure;
    EXPECT_NE(base.counters, held_out.counters);
  }
}

}  // namespace
}  // namespace e2ebench
