#include "model/schema.h"

#include "base/string_util.h"

namespace prefrep {

Result<RelId> Schema::AddRelation(std::string name, int arity) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (arity < 1 || arity > kMaxArity) {
    return Status::InvalidArgument("arity of '" + name + "' must be in 1.." +
                                   std::to_string(kMaxArity));
  }
  if (by_name_.count(name)) {
    return Status::AlreadyExists("relation '" + name + "' already declared");
  }
  RelId id = static_cast<RelId>(relations_.size());
  by_name_.emplace(name, id);
  relations_.push_back(RelationDef{std::move(name), arity});
  fd_sets_.emplace_back(arity);
  return id;
}

RelId Schema::MustAddRelation(std::string name, int arity) {
  Result<RelId> r = AddRelation(std::move(name), arity);
  PREFREP_CHECK_MSG(r.ok(), "MustAddRelation failed");
  return *r;
}

Status Schema::AddFd(RelId rel, const FD& fd) {
  if (rel >= relations_.size()) {
    return Status::OutOfRange("relation id out of range");
  }
  if (!fd.FitsArity(relations_[rel].arity)) {
    return Status::InvalidArgument(
        "fd " + fd.ToString() + " does not fit arity of relation '" +
        relations_[rel].name + "'");
  }
  fd_sets_[rel].Add(fd);
  return Status::OK();
}

Status Schema::AddFd(std::string_view relation_name, const FD& fd) {
  RelId rel = FindRelation(relation_name);
  if (rel == kInvalidRelId) {
    return Status::NotFound("unknown relation '" + std::string(relation_name) +
                            "'");
  }
  return AddFd(rel, fd);
}

Status Schema::AddFdParsed(std::string_view text) {
  // Accept "Rel: A -> B" and, for single-relation schemas, plain "A -> B".
  size_t colon = text.find(':');
  std::string_view rel_part;
  std::string_view fd_part = text;
  if (colon != std::string_view::npos &&
      text.substr(0, colon).find("->") == std::string_view::npos) {
    rel_part = StripAsciiWhitespace(text.substr(0, colon));
    fd_part = text.substr(colon + 1);
  }
  PREFREP_ASSIGN_OR_RETURN(FD fd, FD::Parse(fd_part));
  if (!rel_part.empty()) {
    return AddFd(rel_part, fd);
  }
  if (relations_.size() != 1) {
    return Status::InvalidArgument(
        "fd '" + std::string(text) +
        "' names no relation and the schema is not single-relation");
  }
  return AddFd(RelId{0}, fd);
}

void Schema::MustAddFd(RelId rel, const FD& fd) {
  Status s = AddFd(rel, fd);
  PREFREP_CHECK_MSG(s.ok(), "MustAddFd failed");
}

void Schema::MustAddFdParsed(std::string_view text) {
  Status s = AddFdParsed(text);
  PREFREP_CHECK_MSG(s.ok(), "MustAddFdParsed failed");
}

RelId Schema::FindRelation(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidRelId : it->second;
}

Schema Schema::SingleRelation(std::string name, int arity,
                              std::initializer_list<FD> fds) {
  Schema schema;
  RelId rel = schema.MustAddRelation(std::move(name), arity);
  for (const FD& fd : fds) {
    schema.MustAddFd(rel, fd);
  }
  return schema;
}

std::string Schema::ToString() const {
  std::string out;
  for (RelId r = 0; r < relations_.size(); ++r) {
    out += "relation " + relations_[r].name + "/" +
           std::to_string(relations_[r].arity) + "\n";
    for (const FD& fd : fd_sets_[r].fds()) {
      out += "  " + relations_[r].name + ": " + fd.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace prefrep
