// Fixture for tools/check_prefrep.py --selftest (never compiled): an
// algorithm file that names no result of the paper, so nothing ties the
// code to the claim it implements and it cannot be audited against the
// source.  The self-test applies the rule to fixtures named citation_*.
// EXPECT-FINDING: citation

#include <vector>

namespace prefrep {

bool EveryBlockSmall(const std::vector<int>& block_sizes) {
  for (int size : block_sizes) {
    if (size > 12) {
      return false;
    }
  }
  return true;
}

}  // namespace prefrep
