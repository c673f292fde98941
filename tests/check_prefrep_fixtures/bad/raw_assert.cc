// Fixture for tools/check_prefrep.py --selftest (never compiled): a
// raw assert, which vanishes under NDEBUG (every optimized build), so
// the invariant it states goes unchecked exactly where it matters.
// EXPECT-FINDING: raw-assert

#include <cassert>
#include <vector>

namespace prefrep {

int FirstFact(const std::vector<int>& block) {
  assert(!block.empty());
  return block.front();
}

}  // namespace prefrep
