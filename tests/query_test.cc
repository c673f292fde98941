// Tests for the conjunctive-query substrate and consistent query
// answering under preferred repairs (the paper's stated next problem,
// §8).  Includes the classical CQA semantics as a baseline and the
// running example as an end-to-end scenario.

#include <gtest/gtest.h>

#include "gen/running_example.h"
#include "query/consistent_answers.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

TEST(CqParseTest, ParsesHeadBodyAndConstants) {
  auto q = ConjunctiveQuery::Parse(
      "Q(x, z) :- R(x, y), S(y, z, \"c\")");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->head().size(), 2u);
  EXPECT_EQ(q->body().size(), 2u);
  EXPECT_EQ(q->variables().size(), 3u);
  EXPECT_EQ(q->body()[1].terms[2].kind, QueryTerm::Kind::kConstant);
  EXPECT_EQ(q->body()[1].terms[2].constant, "c");
  EXPECT_EQ(q->ToString(), "Q(x, z) :- R(x, y), S(y, z, \"c\")");
}

TEST(CqParseTest, BooleanQueries) {
  auto q = ConjunctiveQuery::Parse("Q() :- R(x, x)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsBoolean());
}

TEST(CqParseTest, Errors) {
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q(x) - R(x, y)").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q(z) :- R(x, y)").ok());  // unsafe
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q() :- ").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q() :- R").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q() :- R()").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q() :- R(a-b)").ok());
}

TEST(CqEvalTest, JoinsAndConstants) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.facts = {"e1: a, b", "e2: b, c", "e3: b, d", "e4: x, y"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  DynamicBitset all = inst.AllFacts();

  auto path = ConjunctiveQuery::Parse("Q(x, z) :- R(x, y), R(y, z)");
  ASSERT_TRUE(path.ok());
  auto answers = path->Evaluate(inst, all);
  EXPECT_EQ(answers, (std::vector<ConjunctiveQuery::AnswerTuple>{
                         {"a", "c"}, {"a", "d"}}));

  auto from_b = ConjunctiveQuery::Parse("Q(z) :- R(\"b\", z)");
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ(from_b->Evaluate(inst, all),
            (std::vector<ConjunctiveQuery::AnswerTuple>{{"c"}, {"d"}}));

  // Evaluation respects the subinstance.
  DynamicBitset sub = testing_util::Sub(inst, {"e1"});
  EXPECT_TRUE(path->Evaluate(inst, sub).empty());

  // Repeated variables.
  auto loop = ConjunctiveQuery::Parse("Q() :- R(x, x)");
  ASSERT_TRUE(loop.ok());
  EXPECT_FALSE(loop->EvaluateBoolean(inst, all));
}

TEST(CqEvalTest, UnknownRelationGivesNoAnswers) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.facts = {"e1: a, b"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  auto q = ConjunctiveQuery::Parse("Q(x) :- Nope(x, y)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->Evaluate(*p.instance, p.instance->AllFacts()).empty());
}

// Consistent answers on a two-choice instance: under classical CQA the
// disputed value vanishes; under global semantics the preferred value
// becomes certain.
TEST(ConsistentAnswersTest, PreferencesSharpenAnswers) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"new: k, v2", "old: k, v1", "other: m, w"};
  spec.priorities = {"new > old"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const ProblemContext ctx(*p.instance, *p.priority);
  auto q = ConjunctiveQuery::Parse("Q(y) :- R(\"k\", y)");
  ASSERT_TRUE(q.ok());

  // All repairs: {new, other} and {old, other} — no certain answer.
  EXPECT_TRUE(
      ConsistentAnswers(ctx, *q, AnswerSemantics::kAllRepairs).empty());
  // Globally-optimal repairs: only {new, other}.
  EXPECT_EQ(ConsistentAnswers(ctx, *q, AnswerSemantics::kGlobal),
            (std::vector<ConjunctiveQuery::AnswerTuple>{{"v2"}}));
  EXPECT_EQ(ConsistentAnswers(ctx, *q, AnswerSemantics::kCompletion),
            (std::vector<ConjunctiveQuery::AnswerTuple>{{"v2"}}));

  // The unconflicted fact is a certain answer under every semantics.
  auto all_q = ConjunctiveQuery::Parse("Q(x, y) :- R(x, y)");
  ASSERT_TRUE(all_q.ok());
  for (AnswerSemantics sem :
       {AnswerSemantics::kAllRepairs, AnswerSemantics::kGlobal,
        AnswerSemantics::kPareto, AnswerSemantics::kCompletion}) {
    auto answers = ConsistentAnswers(ctx, *all_q, sem);
    EXPECT_NE(std::find(answers.begin(), answers.end(),
                        ConjunctiveQuery::AnswerTuple{"m", "w"}),
              answers.end());
  }
}

TEST(ConsistentAnswersTest, CertainAndPossible) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, v1", "b: k, v2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const ProblemContext ctx(*p.instance, *p.priority);
  auto has_v1 = ConjunctiveQuery::Parse("Q() :- R(x, \"v1\")");
  ASSERT_TRUE(has_v1.ok());
  EXPECT_FALSE(CertainlyTrue(ctx, *has_v1, AnswerSemantics::kAllRepairs));
  EXPECT_TRUE(PossiblyTrue(ctx, *has_v1, AnswerSemantics::kAllRepairs));
  auto has_k = ConjunctiveQuery::Parse("Q() :- R(\"k\", y)");
  ASSERT_TRUE(has_k.ok());
  EXPECT_TRUE(CertainlyTrue(ctx, *has_k, AnswerSemantics::kAllRepairs));
}

// Monotonicity across semantics: since completion-optimal ⊆ global ⊆
// Pareto ⊆ all repairs, certain answers can only grow as the repair set
// shrinks.
TEST(ConsistentAnswersTest, AnswerMonotonicityAcrossSemantics) {
  PreferredRepairProblem problem = RunningExampleProblem();
  const ProblemContext ctx(*problem.instance, *problem.priority);
  auto q = ConjunctiveQuery::Parse(
      "Q(lib, loc) :- LibLoc(lib, loc)");
  ASSERT_TRUE(q.ok());
  auto all = ConsistentAnswers(ctx, *q, AnswerSemantics::kAllRepairs);
  auto pareto = ConsistentAnswers(ctx, *q, AnswerSemantics::kPareto);
  auto global = ConsistentAnswers(ctx, *q, AnswerSemantics::kGlobal);
  auto completion = ConsistentAnswers(ctx, *q, AnswerSemantics::kCompletion);
  auto subset_of = [](const auto& small, const auto& big) {
    for (const auto& t : small) {
      if (std::find(big.begin(), big.end(), t) == big.end()) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(subset_of(all, pareto));
  EXPECT_TRUE(subset_of(pareto, global));
  EXPECT_TRUE(subset_of(global, completion));
}

// End-to-end on the running example: which book-library placements are
// certain under globally-optimal repairs?
TEST(ConsistentAnswersTest, RunningExampleJoinQuery) {
  PreferredRepairProblem problem = RunningExampleProblem();
  const ProblemContext ctx(*problem.instance, *problem.priority);
  // Books whose library is in a known location.
  auto q = ConjunctiveQuery::Parse(
      "Q(isbn, loc) :- BookLoc(isbn, genre, lib), LibLoc(lib, loc)");
  ASSERT_TRUE(q.ok());
  auto global = ConsistentAnswers(ctx, *q, AnswerSemantics::kGlobal);
  // The three globally-optimal repairs are J2, J4 and
  // {g1f1, g1f2, f2p1, h3h2, d1a, e3b} (where both lib2 facts are
  // blocked).  The only certain placement is (b1, almaden): b1 sits in
  // lib1 and lib2, and in every optimal repair one of them maps to
  // almaden (d1a or g2a).  b2's library (lib1) changes location across
  // repairs, and b3's lib2 is absent from the third repair.
  EXPECT_EQ(global, (std::vector<ConjunctiveQuery::AnswerTuple>{
                        {"b1", "almaden"}}));
  // Under classical CQA (all 16 repairs) even that is lost: the repair
  // {.., f1d3, ..} drops b1 from fiction libraries entirely.
  auto classical = ConsistentAnswers(ctx, *q, AnswerSemantics::kAllRepairs);
  EXPECT_TRUE(classical.empty());
}


}  // namespace
}  // namespace prefrep
