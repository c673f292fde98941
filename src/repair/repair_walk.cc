// The flat compatibility table and arena of the repair walk (§2.2
// repairs as maximal cliques of the complement conflict graph).
#include "repair/repair_walk.h"

#include <algorithm>
#include <utility>

#include "conflicts/blocks.h"

namespace prefrep {

RepairWalkTable::RepairWalkTable(const ConflictGraph& cg,
                                 std::vector<FactId> members)
    : members_(std::move(members)),
      words_(std::max<size_t>(1, (members_.size() + 63) / 64)),
      rows_(members_.size() * words_, 0) {
  const size_t c = members_.size();
  for (size_t i = 0; i < c; ++i) {
    uint64_t* row = rows_.data() + i * words_;
    repair_walk_internal::FillPrefix(row, words_, c);
    row[i / 64] &= ~(uint64_t{1} << (i % 64));
    for (FactId u : cg.neighbors(members_[i])) {
      const size_t k = PositionIn(members_, u);
      if (k != SIZE_MAX) {
        row[k / 64] &= ~(uint64_t{1} << (k % 64));
      }
    }
  }
}

RepairWalk::RepairWalk(const RepairWalkTable& table) : table_(&table) {
  // A search path adds one member per level, so c + 1 levels always
  // suffice; beyond one word, start smaller and grow on demand, since
  // the depth of a wide walk is bounded by its largest repair.
  EnsureLevels(std::min<size_t>(table.size() + 1, 65));
}

void RepairWalk::EnsureLevels(size_t levels) {
  levels_ = std::max(levels, 2 * levels_);
  arena_.resize(table_->words() * (1 + 3 * levels_));
}

}  // namespace prefrep
