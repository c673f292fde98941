#include "repair/checker.h"

#include "repair/block_solver.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

namespace {

void ValidateForMode(const ProblemContext& ctx, const CheckerOptions& options) {
  Status valid = ctx.priority().Validate(options.mode);
  PREFREP_CHECK_MSG(valid.ok(),
                    "priority relation invalid for the checker's mode");
}

}  // namespace

RepairChecker::RepairChecker(const Instance& instance,
                             const PriorityRelation& priority,
                             CheckerOptions options)
    : owned_ctx_(std::make_unique<ProblemContext>(instance, priority)),
      ctx_(owned_ctx_.get()),
      options_(options) {
  ValidateForMode(*ctx_, options_);
  ctx_->Prime();
}

RepairChecker::RepairChecker(const ProblemContext& context,
                             CheckerOptions options)
    : ctx_(&context), options_(options) {
  ValidateForMode(*ctx_, options_);
  ctx_->Prime();
}

bool RepairChecker::SchemaIsTractable() const {
  return options_.mode == PriorityMode::kConflictOnly
             ? ctx_->classification().tractable
             : ctx_->ccp_classification().tractable();
}

bool RepairChecker::IsRepair(const DynamicBitset& j) const {
  return prefrep::IsRepair(ctx_->conflict_graph(), j);
}

Result<CheckOutcome> RepairChecker::CheckGloballyOptimal(
    const DynamicBitset& j) const {
  PREFREP_CHECK_MSG(j.size() == ctx_->instance().num_facts(),
                    "subinstance bitset size mismatch");
  return options_.mode == PriorityMode::kConflictOnly
             ? CheckConflictOnly(j)
             : CheckCrossConflict(j);
}

Result<CheckOutcome> RepairChecker::CheckConflictOnly(
    const DynamicBitset& j) const {
  const Instance& instance = ctx_->instance();
  const BlockDecomposition& blocks = ctx_->blocks();
  const size_t num_relations = instance.schema().num_relations();
  // Proposition 3.5 + block locality: check block by block, in an order
  // grouped by relation to match the route lines.
  std::vector<size_t> order;
  for (RelId rel = 0; rel < num_relations; ++rel) {
    const std::vector<size_t>& rel_blocks = blocks.blocks_of_relation(rel);
    order.insert(order.end(), rel_blocks.begin(), rel_blocks.end());
  }
  CheckOutcome outcome;
  size_t failed = BlockDecomposition::kNoBlock;
  outcome.result =
      CheckOptimalByBlocks(*ctx_, j, RepairSemantics::kGlobal,
                           PriorityMode::kConflictOnly, &failed,
                           &outcome.degradation, &order);
  if (outcome.result.known() && !outcome.result.optimal &&
      failed == BlockDecomposition::kNoBlock) {
    // Rejected before any block check: an inconsistent J is no repair
    // at all, and a missing conflict-free fact (the witnessed case) is
    // in every repair.
    outcome.route.push_back(
        outcome.result.witness.has_value()
            ? "rejected: J misses a conflict-free fact (present in every "
              "repair)"
            : "rejected: J is inconsistent (not a repair)");
    return outcome;
  }
  // One route line per relation the serial pass reached, naming the
  // algorithm its classification dispatches, with the blocks the budget
  // abandoned and the block that refuted J.
  const std::vector<BlockDegradation>& abandoned =
      outcome.degradation.abandoned;
  size_t next_abandoned = 0;
  for (RelId rel = 0; rel < num_relations; ++rel) {
    const RelationClassification& rc = ctx_->classification().relations[rel];
    const std::string& name = instance.schema().relation_name(rel);
    std::string route;
    switch (rc.kind) {
      case TractableKind::kSingleFd:
        route = name + ": GRepCheck1FD (" + rc.single_fd.ToString() + ")";
        break;
      case TractableKind::kTwoKeys:
        route = name + ": GRepCheck2Keys (" + rc.key1.ToString() + ", " +
                rc.key2.ToString() + ")";
        break;
      case TractableKind::kHard:
        route = name + ": exhaustive fallback";
        break;
    }
    route += " over " +
             std::to_string(blocks.blocks_of_relation(rel).size()) +
             " block(s)";
    for (; next_abandoned < abandoned.size() &&
           blocks.block(abandoned[next_abandoned].block_id).rel == rel;
         ++next_abandoned) {
      route += "; abandoned block " +
               std::to_string(abandoned[next_abandoned].block_id) +
               " (budget)";
    }
    outcome.route.push_back(std::move(route));
    if (failed != BlockDecomposition::kNoBlock &&
        blocks.block(failed).rel == rel) {
      outcome.route.back() += "; failed at block " + std::to_string(failed);
      break;
    }
  }
  return outcome;
}

Result<CheckOutcome> RepairChecker::CheckCrossConflict(
    const DynamicBitset& j) const {
  // Theorem 7.1 classifies the whole schema, so one algorithm serves
  // every block; a cross-conflict priority edge between facts with
  // conflicts put its endpoints in one block (conflicts/blocks.h).
  const CcpSchemaClassification& ccp = ctx_->ccp_classification();
  const std::string algorithm =
      ccp.primary_key_assignment
          ? "ccp primary-key algorithm (G_{J,I\\J})"
      : ccp.constant_attr_assignment
          ? "ccp constant-attribute algorithm (partition scan)"
          : "exhaustive fallback";
  CheckOutcome outcome;
  outcome.route.push_back(algorithm + " over " +
                          std::to_string(ctx_->blocks().num_blocks()) +
                          " block(s)");
  size_t failed = BlockDecomposition::kNoBlock;
  outcome.result = CheckOptimalByBlocks(
      *ctx_, j, RepairSemantics::kGlobal, PriorityMode::kCrossConflict,
      &failed, &outcome.degradation);
  if (failed != BlockDecomposition::kNoBlock) {
    outcome.route.back() += "; failed at block " + std::to_string(failed);
  }
  if (outcome.degradation.Degraded()) {
    outcome.route.back() +=
        "; abandoned " + std::to_string(outcome.degradation.blocks_abandoned) +
        " block(s) (budget)";
  }
  return outcome;
}

CheckResult RepairChecker::CheckParetoOptimal(const DynamicBitset& j) const {
  return CheckOptimalByBlocks(*ctx_, j, RepairSemantics::kPareto,
                              options_.mode);
}

CheckResult RepairChecker::CheckCompletionOptimal(
    const DynamicBitset& j) const {
  PREFREP_CHECK_MSG(options_.mode == PriorityMode::kConflictOnly,
                    "completion semantics are defined for conflict-bounded "
                    "priorities only");
  return CheckOptimalByBlocks(*ctx_, j, RepairSemantics::kCompletion,
                              options_.mode);
}

}  // namespace prefrep
