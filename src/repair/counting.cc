// Counting σ-optimal repairs (§8): with a block-local priority they
// factor as {free facts} × ∏ per-block optimal block-repairs, so the
// count is the product of per-block counts.
#include "repair/counting.h"

#include <algorithm>

#include "repair/audit.h"
#include "repair/block_solver.h"

namespace prefrep {

BoundedCount CountOptimalRepairsBounded(const ProblemContext& ctx,
                                        RepairSemantics semantics) {
  if (!ctx.priority_block_local()) {
    // Cross-block priority: the count does not factor, so the governed
    // whole-instance enumeration is the only route.  When the budget
    // fires the instance counts as one big unknown "block", and the
    // lower bound falls back to the one optimal repair every instance
    // has.
    const std::vector<DynamicBitset> optimal =
        AllOptimalRepairs(ctx, semantics);
    if (optimal.empty()) {
      return BoundedCount{1, /*exact=*/false, /*unknown_blocks=*/1,
                          /*saturated=*/false};
    }
    return BoundedCount{optimal.size(), true, 0, false};
  }
  ResourceGovernor& governor = ctx.governor();
  BoundedCount out;
  // A zero payload is never adopted (it means refused, cut short at
  // zero, or — audited below — a genuine algorithmic zero), so the
  // rerun leaves the authoritative record on the shared governor.
  const FoldOutcome fold = FoldBlocks(
      ctx, nullptr,
      [&](const ProblemContext& cx, const Block& b) {
        return CachedCountBlock(SolverForSemantics(ctx, b, semantics), cx, b);
      },
      [](const uint64_t& count) { return count > 0; }, nullptr,
      [&](const Block& b, uint64_t& block_count, bool budget_fired) {
        // A cut-short block keeps what it verified, floored at one
        // (every block has ≥ 1 optimal block-repair); 0 from an uncut
        // block would be an algorithmic bug and still goes through the
        // audit below.
        const bool block_unknown =
            budget_fired ||
            (block_count == 0 &&
             (governor.degraded() ||
              b.size() > ResourceGovernor::kMaxExhaustiveBlockFacts));
        if (!block_unknown) {
          audit::CheckBlockCount(ctx, SolverForSemantics(ctx, b, semantics),
                                 b, block_count);
          if (block_count == 0) {
            // An uncut zero annihilates the product exactly.
            out.lower_bound = 0;
            return FoldStep::Stop();
          }
        }
        bool saturated = false;
        out.lower_bound = SaturatingMulU64(
            out.lower_bound, std::max<uint64_t>(block_count, 1), &saturated);
        out.saturated = out.saturated || saturated;
        return block_unknown ? FoldStep::Abandoned(std::string())
                             : FoldStep::Exact();
      });
  out.unknown_blocks = fold.report.blocks_abandoned;
  out.exact = out.unknown_blocks == 0 && !out.saturated;
  return out;
}

}  // namespace prefrep
