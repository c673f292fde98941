// Fixture for tools/check_prefrep.py --selftest (never compiled): the
// same fold-step cross product as bad/checkpoint_fold_product.cc written
// correctly — a governor checkpoint on every materializing iteration,
// mirroring AllOptimalRepairs in src/repair/block_solver.cc.

#include <vector>

namespace prefrep {

struct Repair {};
struct Ctx {};
struct Block {};
struct Governor {
  bool Checkpoint();
};
struct FoldStep {
  static FoldStep Exact();
  static FoldStep Stop();
};
template <typename... Fns>
void FoldBlocks(const Ctx& ctx, const void* order, Fns... fns);
std::vector<Repair> BlockRepairs(const Ctx& ctx, const Block& b);
Repair Merge(const Repair& a, const Repair& b);

std::vector<Repair> CrossProduct(const Ctx& ctx, Governor* governor) {
  std::vector<Repair> out(1);
  FoldBlocks(
      ctx, nullptr,
      [&](const Ctx& cx, const Block& b) { return BlockRepairs(cx, b); },
      [](const std::vector<Repair>& v) { return !v.empty(); }, nullptr,
      [&](const Block&, std::vector<Repair>& optimal, bool) {
        std::vector<Repair> next;
        for (const Repair& prefix : out) {
          for (const Repair& choice : optimal) {
            if (!governor->Checkpoint()) {
              return FoldStep::Stop();
            }
            next.push_back(Merge(prefix, choice));
          }
        }
        out = std::move(next);
        return FoldStep::Exact();
      });
  return out;
}

}  // namespace prefrep
