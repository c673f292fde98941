// Counting σ-optimal repairs (§8): they factor as {free facts} × ∏
// per-block optimal sets, so the count is the product of the sets'
// sizes.
#include "repair/counting.h"

#include <algorithm>

#include "repair/block_solver.h"

namespace prefrep {

BoundedCount CountOptimalRepairsBounded(const ProblemContext& ctx,
                                        RepairSemantics semantics) {
  BoundedCount out;
  // An incomplete set keeps the members it verified, floored at one
  // (every block has an optimal block-repair); the rerun of a worker's
  // incomplete set leaves the authoritative record on the shared
  // governor.
  const FoldOutcome fold = FoldBlocks(
      ctx, nullptr,
      [semantics](const ProblemContext& cx, const Block& b) {
        return OptimalSetOf(cx, b, semantics);
      },
      [](const OptimalBlockSet& set) { return set.complete; }, nullptr,
      [&](const Block&, OptimalBlockSet& set, bool) {
        bool saturated = false;
        out.lower_bound = SaturatingMulU64(
            out.lower_bound, std::max<uint64_t>(set.size(), 1), &saturated);
        out.saturated = out.saturated || saturated;
        return set.complete ? FoldStep::Exact()
                            : FoldStep::Abandoned(std::string());
      });
  out.unknown_blocks = fold.report.blocks_abandoned;
  out.exact = out.unknown_blocks == 0 && !out.saturated;
  return out;
}

}  // namespace prefrep
