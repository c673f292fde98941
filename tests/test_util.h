// Copyright (c) prefrep contributors.
// Shared helpers for the prefrep test suite.

#ifndef PREFREP_TESTS_TEST_UTIL_H_
#define PREFREP_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "conflicts/conflicts.h"
#include "model/problem.h"
#include "repair/improvement.h"

namespace prefrep {
namespace testing_util {

/// Builds a single-relation problem from compact text: relation arity,
/// FDs ("1 -> 2"), facts as comma-separated constants with labels, and
/// priority edges by label.
struct ProblemSpec {
  int arity = 2;
  std::vector<std::string> fds;
  /// Each entry: "label: c1, c2, ..." .
  std::vector<std::string> facts;
  /// Each entry: "higher > lower" (labels).
  std::vector<std::string> priorities;
};

PreferredRepairProblem MakeProblem(const ProblemSpec& spec);

/// Returns the bitset of facts with the given labels.
DynamicBitset Sub(const Instance& instance,
                  const std::vector<std::string>& labels);

/// The listed facts (a block's fact_list) as a whole-instance bitset of
/// `num_facts` bits, for set algebra in definitional references.
DynamicBitset ListBits(const std::vector<FactId>& facts, size_t num_facts);

/// If `result` reports non-optimal with a witness, verifies that the
/// witness really is a global improvement of `j`; returns a description
/// of any violation (empty string = fine).
std::string VerifyWitness(const ConflictGraph& cg, const PriorityRelation& pr,
                          const DynamicBitset& j, const CheckResult& result);

}  // namespace testing_util
}  // namespace prefrep

#endif  // PREFREP_TESTS_TEST_UTIL_H_
