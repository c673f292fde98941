// Copyright (c) prefrep contributors.
// Interned constant values.  The paper assumes an infinite set Const of
// constants; we intern every constant (a string) to a dense 32-bit id so
// tuples are small integer vectors and comparisons are integer compares.

#ifndef PREFREP_MODEL_VALUE_H_
#define PREFREP_MODEL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/hash.h"
#include "base/macros.h"

namespace prefrep {

/// Dense id of an interned constant.
using ValueId = uint32_t;

/// Sentinel for "no value".
inline constexpr ValueId kInvalidValueId = UINT32_MAX;

/// Bidirectional map between constants (strings) and dense ValueIds.
///
/// Interning is append-only; ids are stable for the dictionary's lifetime.
class ValueDict {
 public:
  ValueDict() = default;
  PREFREP_DISALLOW_COPY(ValueDict);
  ValueDict(ValueDict&&) = default;
  ValueDict& operator=(ValueDict&&) = default;

  /// Interns `text`, returning its id (existing id if already interned).
  /// Allocation-free when `text` is already interned.
  ValueId Intern(std::string_view text) {
    auto it = index_.find(text);
    if (it != index_.end()) {
      return it->second;
    }
    PREFREP_CHECK_MSG(values_.size() < kInvalidValueId,
                      "value dictionary overflow");
    ValueId id = static_cast<ValueId>(values_.size());
    values_.emplace_back(text);
    index_.emplace(values_.back(), id);
    return id;
  }

  /// Interns the decimal rendering of an integer.
  ValueId InternInt(int64_t v) { return Intern(std::to_string(v)); }

  /// Looks up an already-interned constant; kInvalidValueId if absent.
  /// Allocation-free.
  ValueId Find(std::string_view text) const {
    auto it = index_.find(text);
    return it == index_.end() ? kInvalidValueId : it->second;
  }

  /// The text of an interned constant.
  const std::string& Text(ValueId id) const {
    PREFREP_CHECK(id < values_.size());
    return values_[id];
  }

  size_t size() const { return values_.size(); }

 private:
  std::vector<std::string> values_;
  StringViewMap<ValueId> index_;
};

}  // namespace prefrep

#endif  // PREFREP_MODEL_VALUE_H_
