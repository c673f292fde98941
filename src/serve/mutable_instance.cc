#include "serve/mutable_instance.h"

#include <utility>

namespace prefrep {

MutableInstance::MutableInstance(const PreferredRepairProblem& problem) {
  schema_ = std::make_unique<Schema>(*problem.schema);
  instance_ = std::make_unique<Instance>(schema_.get());
  const Instance& src = *problem.instance;
  for (FactId f = 0; f < src.num_facts(); ++f) {
    const Fact fact = src.fact(f);
    std::vector<std::string> constants;
    constants.reserve(fact.values.size());
    for (ValueId v : fact.values) {
      constants.emplace_back(src.dict().Text(v));
    }
    const std::string label = src.label(f).empty()
                                  ? "f" + std::to_string(f)
                                  : src.label(f);
    Result<FactId> added = instance_->AddFact(fact.rel, constants, label);
    PREFREP_CHECK_MSG(added.ok() && *added == f,
                      "deep copy must preserve fact ids");
  }
  live_ = instance_->AllFacts();
}

Result<MutableInstance::InsertOutcome> MutableInstance::Insert(
    std::string_view relation_name, const std::vector<std::string>& constants,
    std::string_view label) {
  if (label.empty()) {
    return Status::InvalidArgument("insert requires a fact label");
  }
  RelId rel = schema_->FindRelation(relation_name);
  if (rel == kInvalidRelId) {
    return Status::NotFound("unknown relation '" +
                            std::string(relation_name) + "'");
  }
  if (constants.size() != static_cast<size_t>(schema_->arity(rel))) {
    return Status::InvalidArgument(
        "arity mismatch for relation '" + std::string(relation_name) + "'");
  }
  // Probe by content first: the append-only Instance would otherwise
  // happily relabel an existing fact, and labels must stay permanent
  // for the rebuild contract.
  std::vector<ValueId> values;
  values.reserve(constants.size());
  for (const std::string& c : constants) {
    values.push_back(instance_->dict().Intern(c));
  }
  FactId existing = instance_->FindRow(rel, values.data(), values.size());
  if (existing != kInvalidFactId) {
    if (instance_->label(existing) != label) {
      return Status::AlreadyExists(
          "fact content already present as '" +
          instance_->label(existing) + "'");
    }
    InsertOutcome out;
    out.id = existing;
    if (live_.test(existing)) {
      out.already_live = true;
    } else {
      live_.set(existing);
      out.revived = true;
      ++generation_;
    }
    return out;
  }
  if (instance_->FindLabel(label) != kInvalidFactId) {
    return Status::AlreadyExists("label '" + std::string(label) +
                                 "' already names a different fact");
  }
  Result<FactId> added = instance_->AddFactValues(rel, values, label);
  if (!added.ok()) {
    return added.status();
  }
  live_.Resize(instance_->num_facts());
  live_.set(*added);
  ++generation_;
  InsertOutcome out;
  out.id = *added;
  return out;
}

Result<FactId> MutableInstance::Tombstone(std::string_view label) {
  Result<FactId> id = ResolveLive(label);
  if (!id.ok()) {
    return id;
  }
  live_.reset(*id);
  ++generation_;
  return id;
}

Result<FactId> MutableInstance::ResolveLive(std::string_view label) const {
  FactId id = instance_->FindLabel(label);
  if (id == kInvalidFactId) {
    return Status::NotFound("unknown fact label '" + std::string(label) +
                            "'");
  }
  if (!live_.test(id)) {
    return Status::NotFound("fact '" + std::string(label) +
                            "' has been deleted");
  }
  return id;
}

std::string MutableInstance::SerializeLive(const PriorityRelation* priority,
                                           const DynamicBitset* j) const {
  // Mirrors io/text_format's ProblemToText, restricted to live facts.
  // Every fact is labeled by construction, so no labels are synthesized
  // here — the rebuilt (id-compacted) instance prints the same names.
  std::string out;
  for (RelId r = 0; r < schema_->num_relations(); ++r) {
    out += "relation " + schema_->relation_name(r) + " " +
           std::to_string(schema_->arity(r)) + "\n";
    for (const FD& fd : schema_->fds(r).fds()) {
      out += "fd " + schema_->relation_name(r) + ": " + fd.ToString() + "\n";
    }
  }
  live_.ForEach([&](size_t f) {
    const Fact fact = instance_->fact(static_cast<FactId>(f));
    out += "fact " + instance_->label(static_cast<FactId>(f)) + " " +
           schema_->relation_name(fact.rel) + "(";
    for (size_t i = 0; i < fact.values.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += instance_->dict().Text(fact.values[i]);
    }
    out += ")\n";
  });
  if (priority != nullptr) {
    for (const auto& [higher, lower] : priority->edges()) {
      out += "prefer " + instance_->label(higher) + " > " +
             instance_->label(lower) + "\n";
    }
  }
  if (j != nullptr && j->any()) {
    out += "j";
    j->ForEach([&](size_t f) {
      out += " " + instance_->label(static_cast<FactId>(f));
    });
    out += "\n";
  }
  return out;
}

}  // namespace prefrep
