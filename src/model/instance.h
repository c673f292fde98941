// Copyright (c) prefrep contributors.
// Database instances (§2.1).  An instance over a signature is a finite set
// of facts R_i(t); we identify each instance with its set of facts and
// give every fact a dense FactId so subinstances are bitsets.
//
// Storage is columnar (docs/memory-layout.md): tuple values live in one
// contiguous fixed-stride slab per relation (arity is a per-relation
// constant, so row r of relation R starts at offset r·arity), and a
// `Fact` is a *view* — a relation id plus a span into that slab — not an
// owning vector.  The hot conflict-join kernels
// (conflicts/projection.h) read rows through `row(FactId)` and compare
// them word-parallel (base/simd.h); everything else keeps the familiar
// `fact(id).values[i]` shape through the ValueSpan view.

#ifndef PREFREP_MODEL_INSTANCE_H_
#define PREFREP_MODEL_INSTANCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/dynamic_bitset.h"
#include "base/hash.h"
#include "base/simd.h"
#include "base/status.h"
#include "model/schema.h"
#include "model/value.h"

namespace prefrep {

/// Dense id of a fact within an Instance.
using FactId = uint32_t;

inline constexpr FactId kInvalidFactId = UINT32_MAX;

/// A read-only view of a tuple's values: a pointer into the owning
/// Instance's per-relation arena slab plus a length (= arity).  Cheap to
/// copy (16 bytes); invalidated by appends to the *same* instance (slab
/// growth may reallocate), so never hold one across AddFact* calls on
/// the instance it points into.
class ValueSpan {
 public:
  constexpr ValueSpan() = default;
  constexpr ValueSpan(const ValueId* data, uint32_t size)
      : data_(data), size_(size) {}

  const ValueId* data() const { return data_; }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const ValueId* begin() const { return data_; }
  const ValueId* end() const { return data_ + size_; }

  ValueId operator[](size_t i) const {
    PREFREP_DCHECK(i < size_);
    return data_[i];
  }

  /// Element-wise equality (word-parallel on contiguous memory).
  bool operator==(const ValueSpan& other) const {
    return size_ == other.size_ &&
           simd::EqualRange(data_, other.data_, size_);
  }
  bool operator!=(const ValueSpan& other) const { return !(*this == other); }

 private:
  const ValueId* data_ = nullptr;
  uint32_t size_ = 0;
};

/// A fact R(t): a relation symbol and a view of its tuple of interned
/// values.  Returned by value from Instance::fact(); see ValueSpan for
/// the (no appends while held) validity rule.
struct Fact {
  RelId rel = kInvalidRelId;
  ValueSpan values;

  bool operator==(const Fact& other) const {
    return rel == other.rel && values == other.values;
  }
};

/// A database instance: a set of facts over a schema, with dense ids.
///
/// Facts are set-valued (duplicates collapse to the same id) and ids are
/// stable.  An Instance owns its ValueDict, so facts from different
/// instances must never be mixed.  Facts can carry optional labels (like
/// the paper's g1f1, d1a, ...) used by the text format, the examples and
/// error messages.
class Instance {
 public:
  /// Creates an empty instance over `schema`.  The schema must outlive the
  /// instance.
  explicit Instance(const Schema* schema) : schema_(schema) {
    PREFREP_CHECK(schema != nullptr);
    by_relation_.resize(schema->num_relations());
    columns_.resize(schema->num_relations());
    stride_.reserve(schema->num_relations());
    for (RelId r = 0; r < schema->num_relations(); ++r) {
      stride_.push_back(static_cast<uint32_t>(schema->arity(r)));
    }
  }

  PREFREP_DISALLOW_COPY(Instance);
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  const Schema& schema() const { return *schema_; }
  ValueDict& dict() { return dict_; }
  const ValueDict& dict() const { return dict_; }

  size_t num_facts() const { return fact_rel_.size(); }

  /// The fact as a (rel, value-span) view.  Valid until the next append
  /// to this instance.
  Fact fact(FactId id) const {
    PREFREP_CHECK(id < fact_rel_.size());
    RelId rel = fact_rel_[id];
    return Fact{rel, ValueSpan(row(id), stride_[rel])};
  }

  /// Relation of a fact (no span materialized).
  RelId rel_of(FactId id) const {
    PREFREP_CHECK(id < fact_rel_.size());
    return fact_rel_[id];
  }

  /// Direct pointer to the fact's contiguous value row in the
  /// per-relation arena slab (length = arity of its relation).  The hot
  /// accessor of the conflict-join kernels; same validity rule as Fact.
  const ValueId* row(FactId id) const {
    PREFREP_DCHECK(id < fact_rel_.size());
    RelId rel = fact_rel_[id];
    return columns_[rel].data() +
           static_cast<size_t>(fact_slot_[id]) * stride_[rel];
  }

  /// The whole arena slab of one relation: facts_of(rel)[i]'s values are
  /// the stride-sized run starting at i·arity(rel).  For bulk kernels.
  const std::vector<ValueId>& relation_slab(RelId rel) const {
    PREFREP_CHECK(rel < columns_.size());
    return columns_[rel];
  }

  /// Adds a fact given by relation id and constant texts; returns the
  /// (possibly pre-existing) fact id.  Arity is checked.
  Result<FactId> AddFact(RelId rel, const std::vector<std::string>& constants,
                         std::string_view label = {});

  /// Adds a fact with already-interned values (a row of the relation's
  /// arity; `values` is copied into the relation slab).
  Result<FactId> AddFactValues(RelId rel, std::span<const ValueId> values,
                               std::string_view label = {});

  /// Adds by relation name; fatal on error (for tests/examples).
  FactId MustAddFact(std::string_view relation_name,
                     const std::vector<std::string>& constants,
                     std::string_view label = {});

  /// Finds a fact by content; kInvalidFactId if absent.  The probe
  /// span may point anywhere (typically a caller-local buffer).
  FactId FindFact(const Fact& fact) const {
    return FindRow(fact.rel, fact.values.data(), fact.values.size());
  }

  /// Finds a fact by relation and value row; kInvalidFactId if absent.
  FactId FindRow(RelId rel, const ValueId* values, size_t count) const;

  /// Finds a fact by label; kInvalidFactId if absent.
  FactId FindLabel(std::string_view label) const;

  /// The label of a fact (empty if unlabeled).
  const std::string& label(FactId id) const {
    PREFREP_CHECK(id < labels_.size());
    return labels_[id];
  }

  /// All fact ids of relation `rel`, in insertion order.  Fact i of this
  /// list occupies slot i of the relation's arena slab.
  const std::vector<FactId>& facts_of(RelId rel) const {
    PREFREP_CHECK(rel < by_relation_.size());
    return by_relation_[rel];
  }

  /// An all-ones bitset over the facts (the subinstance I itself).
  DynamicBitset AllFacts() const {
    DynamicBitset b(num_facts());
    b.set_all();
    return b;
  }

  /// An all-zero bitset over the facts.
  DynamicBitset EmptySubinstance() const {
    return DynamicBitset(num_facts());
  }

  /// Builds a subinstance bitset from fact labels; fatal on unknown label.
  DynamicBitset SubinstanceByLabels(
      const std::vector<std::string>& labels) const;

  /// Renders a fact as "Rel(a, b, c)" (with its label prefix if present).
  std::string FactToString(FactId id) const;

  /// Renders a subinstance as "{f1, f2, ...}" using labels when available.
  std::string SubinstanceToString(const DynamicBitset& sub) const;

 private:
  /// Seeded content hash of a (relation, value-row) pair; drives the
  /// open-addressing fact index.
  static uint64_t HashRow(RelId rel, const ValueId* values, size_t count);

  /// Appends a row to the relation slab and all per-fact directories
  /// (the index must already have been probed: content is known new).
  FactId AppendRow(RelId rel, const ValueId* values, size_t count);

  /// Doubles the open-addressing index and reinserts every fact.
  void GrowIndex();

  const Schema* schema_;
  ValueDict dict_;

  // Columnar arena: one fixed-stride value slab per relation; the
  // per-fact directory maps a FactId to its (relation, slot) location.
  std::vector<std::vector<ValueId>> columns_;  // [rel] → slab
  std::vector<uint32_t> stride_;               // [rel] → arity
  std::vector<RelId> fact_rel_;                // [fact] → relation
  std::vector<uint32_t> fact_slot_;            // [fact] → slab row

  std::vector<std::string> labels_;
  std::vector<std::vector<FactId>> by_relation_;

  // Open-addressing content index (power-of-two capacity, linear
  // probing, kInvalidFactId = empty).  Keys are never materialized: a
  // probe hashes the candidate row and compares against slab rows.
  std::vector<FactId> index_slots_;

  StringViewMap<FactId> label_index_;
};

}  // namespace prefrep

#endif  // PREFREP_MODEL_INSTANCE_H_
