// Fixture for tools/check_prefrep.py --selftest (never compiled): an
// algorithm file that cites the result it implements — the single-FD
// side of Theorem 3.1 — so it can be audited against the paper.

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
