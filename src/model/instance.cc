#include "model/instance.h"

namespace prefrep {

namespace {
// Index sizing: grow at 70% load, start small (most test instances hold
// a handful of facts; hot workloads rehash a few amortized times).
constexpr size_t kInitialIndexCapacity = 16;
constexpr size_t kLoadNumerator = 7;
constexpr size_t kLoadDenominator = 10;
}  // namespace

uint64_t Instance::HashRow(RelId rel, const ValueId* values, size_t count) {
  uint64_t h = HashMix64(0x5eedfac75eedfac7ULL ^ rel);
  for (size_t i = 0; i < count; ++i) {
    h = HashMix64(h ^ values[i]);
  }
  return h;
}

Result<FactId> Instance::AddFact(RelId rel,
                                 const std::vector<std::string>& constants,
                                 std::string_view label) {
  std::vector<ValueId> values;
  values.reserve(constants.size());
  for (const std::string& c : constants) {
    values.push_back(dict_.Intern(c));
  }
  return AddFactValues(rel, values, label);
}

Result<FactId> Instance::AddFactValues(RelId rel,
                                       std::span<const ValueId> values,
                                       std::string_view label) {
  if (rel >= schema_->num_relations()) {
    return Status::OutOfRange("relation id out of range");
  }
  if (static_cast<int>(values.size()) != schema_->arity(rel)) {
    return Status::InvalidArgument(
        "fact over '" + schema_->relation_name(rel) + "' has " +
        std::to_string(values.size()) + " values, arity is " +
        std::to_string(schema_->arity(rel)));
  }
  FactId id = FindRow(rel, values.data(), values.size());
  if (id == kInvalidFactId) {  // set semantics: duplicates collapse
    PREFREP_CHECK_MSG(num_facts() < kInvalidFactId, "fact id overflow");
    id = AppendRow(rel, values.data(), values.size());
  }
  if (!label.empty()) {
    auto existing = label_index_.find(label);
    if (existing != label_index_.end() && existing->second != id) {
      return Status::AlreadyExists("label '" + std::string(label) +
                                   "' already names a different fact");
    }
    labels_[id] = label;
    if (existing == label_index_.end()) {
      label_index_.emplace(label, id);
    }
  }
  return id;
}

FactId Instance::AppendRow(RelId rel, const ValueId* values, size_t count) {
  // Ensure index capacity BEFORE touching the directories: GrowIndex
  // reinserts exactly the facts already appended.
  if (index_slots_.empty() ||
      (num_facts() + 1) * kLoadDenominator >
          index_slots_.size() * kLoadNumerator) {
    GrowIndex();
  }
  FactId id = static_cast<FactId>(num_facts());
  std::vector<ValueId>& slab = columns_[rel];
  uint32_t slot = static_cast<uint32_t>(slab.size() / stride_[rel]);
  slab.insert(slab.end(), values, values + count);
  fact_rel_.push_back(rel);
  fact_slot_.push_back(slot);
  labels_.emplace_back();
  if (by_relation_.size() < schema_->num_relations()) {
    by_relation_.resize(schema_->num_relations());
  }
  by_relation_[rel].push_back(id);

  size_t mask = index_slots_.size() - 1;
  size_t i = HashRow(rel, values, count) & mask;
  while (index_slots_[i] != kInvalidFactId) {
    i = (i + 1) & mask;
  }
  index_slots_[i] = id;
  return id;
}

void Instance::GrowIndex() {
  size_t capacity =
      index_slots_.empty() ? kInitialIndexCapacity : index_slots_.size() * 2;
  index_slots_.assign(capacity, kInvalidFactId);
  size_t mask = capacity - 1;
  for (FactId f = 0; f < num_facts(); ++f) {
    RelId rel = fact_rel_[f];
    size_t i = HashRow(rel, row(f), stride_[rel]) & mask;
    while (index_slots_[i] != kInvalidFactId) {
      i = (i + 1) & mask;
    }
    index_slots_[i] = f;
  }
}

FactId Instance::FindRow(RelId rel, const ValueId* values,
                         size_t count) const {
  if (index_slots_.empty()) {
    return kInvalidFactId;
  }
  size_t mask = index_slots_.size() - 1;
  size_t i = HashRow(rel, values, count) & mask;
  while (true) {
    FactId f = index_slots_[i];
    if (f == kInvalidFactId) {
      return kInvalidFactId;
    }
    if (fact_rel_[f] == rel && stride_[rel] == count &&
        simd::EqualRange(row(f), values, count)) {
      return f;
    }
    i = (i + 1) & mask;
  }
}

FactId Instance::MustAddFact(std::string_view relation_name,
                             const std::vector<std::string>& constants,
                             std::string_view label) {
  RelId rel = schema_->FindRelation(relation_name);
  PREFREP_CHECK_MSG(rel != kInvalidRelId, "unknown relation in MustAddFact");
  Result<FactId> r = AddFact(rel, constants, label);
  PREFREP_CHECK_MSG(r.ok(), "MustAddFact failed");
  return *r;
}

FactId Instance::FindLabel(std::string_view label) const {
  auto it = label_index_.find(label);
  return it == label_index_.end() ? kInvalidFactId : it->second;
}

DynamicBitset Instance::SubinstanceByLabels(
    const std::vector<std::string>& labels) const {
  DynamicBitset sub(num_facts());
  for (const std::string& label : labels) {
    FactId id = FindLabel(label);
    PREFREP_CHECK_MSG(id != kInvalidFactId, "unknown fact label");
    sub.set(id);
  }
  return sub;
}

std::string Instance::FactToString(FactId id) const {
  const Fact f = fact(id);
  std::string out;
  if (!labels_[id].empty()) {
    out += labels_[id];
    out += "=";
  }
  out += schema_->relation_name(f.rel);
  out += "(";
  for (size_t i = 0; i < f.values.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += dict_.Text(f.values[i]);
  }
  out += ")";
  return out;
}

std::string Instance::SubinstanceToString(const DynamicBitset& sub) const {
  std::string out = "{";
  bool first = true;
  sub.ForEach([&](size_t id) {
    if (!first) {
      out += ", ";
    }
    first = false;
    FactId fid = static_cast<FactId>(id);
    if (!labels_[fid].empty()) {
      out += labels_[fid];
    } else {
      out += FactToString(fid);
    }
  });
  out += "}";
  return out;
}

}  // namespace prefrep
