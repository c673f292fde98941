#include "repair/checker.h"

#include "repair/audit.h"
#include "repair/block_solver.h"
#include "repair/ccp_constant_attr.h"
#include "repair/ccp_primary_key.h"
#include "repair/completion.h"
#include "repair/exhaustive.h"
#include "repair/pareto.h"
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
  const ConflictGraph& cg = ctx_->conflict_graph();
  const PriorityRelation& pr = ctx_->priority();
  // A ccp priority may relate facts of different blocks (or conflict-free
  // facts); per-block dispatch is sound only when it does not.
  const bool block_local = ctx_->priority_block_local();
  CheckOutcome outcome;
  auto run_by_blocks = [&](const std::string& algorithm) {
    outcome.route.push_back(
        algorithm + " over " + std::to_string(ctx_->blocks().num_blocks()) +
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
          "; abandoned " +
          std::to_string(outcome.degradation.blocks_abandoned) +
          " block(s) (budget)";
    }
  };
  // A cross-block priority leaves the whole instance as one unit of
  // work: report it as one "block" spanning every fact, solved exactly
  // or abandoned, with the governor's totals read as FoldBlocks reads
  // them.
  auto run_whole_instance = [&](const std::string& route, auto&& solve) {
    outcome.route.push_back(route);
    ResourceGovernor& governor = ctx_->governor();
    const uint64_t nodes_before = governor.nodes_spent();
    outcome.result = solve();
    DegradationReport& report = outcome.degradation;
    report.blocks_total = 1;
    report.nodes_spent = governor.nodes_spent();
    report.cause = governor.degraded() ? governor.CauseString() : std::string();
    if (outcome.result.known()) {
      report.blocks_exact = 1;
      return;
    }
    outcome.route.back() += "; abandoned (budget)";
    report.blocks_abandoned = 1;
    report.abandoned.push_back(BlockDegradation{
        0, cg.num_facts(), governor.nodes_spent() - nodes_before,
        outcome.result.unknown_reason});
  };
  if (ctx_->ccp_classification().primary_key_assignment) {
    if (block_local) {
      run_by_blocks("ccp primary-key algorithm (G_{J,I\\J})");
    } else {
      run_whole_instance(
          "ccp primary-key algorithm (G_{J,I\\J}) (cross-block priority; "
          "whole instance)",
          [&] {
            CheckResult result = CheckGlobalOptimalCcpPrimaryKey(cg, pr, j);
            audit::CheckGlobalVerdict(cg, pr, j, result,
                                      "ccp primary-key algorithm");
            return result;
          });
    }
    return outcome;
  }
  if (ctx_->ccp_classification().constant_attr_assignment) {
    if (block_local) {
      run_by_blocks("ccp constant-attribute algorithm (partition scan)");
    } else {
      run_whole_instance(
          "ccp constant-attribute algorithm (partition enumeration)", [&] {
            CheckResult result = CheckGlobalOptimalCcpConstantAttr(cg, pr, j);
            audit::CheckGlobalVerdict(cg, pr, j, result,
                                      "ccp constant-attribute algorithm");
            return result;
          });
    }
    return outcome;
  }
  if (block_local) {
    run_by_blocks("exhaustive fallback");
  } else {
    run_whole_instance("exhaustive fallback (whole instance)", [&] {
      return ExhaustiveCheckGlobalOptimal(cg, pr, j, ctx_->governor());
    });
  }
  return outcome;
}

CheckResult RepairChecker::CheckParetoOptimal(const DynamicBitset& j) const {
  if (!ctx_->priority_block_local()) {
    return prefrep::CheckParetoOptimal(ctx_->conflict_graph(),
                                       ctx_->priority(), j);
  }
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
