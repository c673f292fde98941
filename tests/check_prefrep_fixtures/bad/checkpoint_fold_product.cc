// Fixture for tools/check_prefrep.py --selftest (never compiled): the
// cross-block-product bug class written as a per-block fold step.  The
// step receives each block's repair list as a lambda parameter — no
// assignment from a repair-source call names it — and multiplies it
// into the running product with no governor checkpoint, so the
// materialized cross product can exceed any admitted budget.
// EXPECT-FINDING: prefrep-checkpoint

#include <vector>

namespace prefrep {

struct Repair {};
struct Ctx {};
struct Block {};
struct FoldStep {
  static FoldStep Exact();
};
template <typename... Fns>
void FoldBlocks(const Ctx& ctx, const void* order, Fns... fns);
std::vector<Repair> BlockRepairs(const Ctx& ctx, const Block& b);
Repair Merge(const Repair& a, const Repair& b);

std::vector<Repair> CrossProduct(const Ctx& ctx) {
  std::vector<Repair> out(1);
  FoldBlocks(
      ctx, nullptr,
      [&](const Ctx& cx, const Block& b) { return BlockRepairs(cx, b); },
      [](const std::vector<Repair>& v) { return !v.empty(); }, nullptr,
      [&](const Block&, std::vector<Repair>& optimal, bool) {
        std::vector<Repair> next;
        for (const Repair& prefix : out) {
          for (const Repair& choice : optimal) {
            next.push_back(Merge(prefix, choice));  // no Checkpoint() — bug
          }
        }
        out = std::move(next);
        return FoldStep::Exact();
      });
  return out;
}

}  // namespace prefrep
