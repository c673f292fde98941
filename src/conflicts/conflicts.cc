#include "conflicts/conflicts.h"

#include <algorithm>
#include <unordered_map>

#include "base/hash.h"
#include "conflicts/projection.h"

namespace prefrep {

bool FactsAgreeOn(const Fact& f, const Fact& g, AttrSet attrs) {
  PREFREP_DCHECK(f.rel == g.rel);
  // Short-circuit: one mismatching attribute settles disagreement, so
  // walk the mask directly instead of ForEach over every position
  // (bench_hotpath BM_AgreeKernel pins the early exit).
  uint64_t m = attrs.mask();
  while (m != 0) {
    const int o = __builtin_ctzll(m);  // 0-based column offset
    if (f.values[o] != g.values[o]) {
      return false;
    }
    m &= m - 1;
  }
  return true;
}

bool IsDeltaConflict(const Fact& f, const Fact& g, const FD& fd) {
  if (f.rel != g.rel) {
    return false;
  }
  return FactsAgreeOn(f, g, fd.lhs) && !FactsAgreeOn(f, g, fd.rhs);
}

bool FactsConflict(const Instance& instance, FactId f, FactId g) {
  const Fact ff = instance.fact(f);
  const Fact gg = instance.fact(g);
  if (ff.rel != gg.rel) {
    return false;
  }
  for (const FD& fd : instance.schema().fds(ff.rel).fds()) {
    if (IsDeltaConflict(ff, gg, fd)) {
      return true;
    }
  }
  return false;
}

std::vector<std::pair<FactId, FactId>> AllConflictPairsNaive(
    const Instance& instance) {
  std::vector<std::pair<FactId, FactId>> out;
  const Schema& schema = instance.schema();
  for (RelId rel = 0; rel < schema.num_relations(); ++rel) {
    const std::vector<FactId>& facts = instance.facts_of(rel);
    for (size_t i = 0; i < facts.size(); ++i) {
      for (size_t k = i + 1; k < facts.size(); ++k) {
        FactId f = std::min(facts[i], facts[k]);
        FactId g = std::max(facts[i], facts[k]);
        if (FactsConflict(instance, f, g)) {
          out.emplace_back(f, g);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<FactId, FactId>> AllConflictPairsHashedReference(
    const Instance& instance) {
  // The pre-columnar production join, preserved verbatim as the
  // ablation baseline the perf gate measures the flat join against
  // (tools/perf_gate.py) and the differential batteries cross-check it
  // with (tests/metamorphic_test.cc).  It deliberately materializes a
  // projected key vector per fact per FD and buckets through nested
  // node-based hash maps — exactly the allocation pattern the columnar
  // rewrite removes.  Do not "optimize" it: its cost is the point.
  auto project = [](const Fact& f, AttrSet attrs) {
    std::vector<ValueId> key;
    key.reserve(static_cast<size_t>(attrs.size()));
    attrs.ForEach([&](int a) { key.push_back(f.values[a - 1]); });
    return key;
  };
  std::vector<std::pair<FactId, FactId>> out;
  const Schema& schema = instance.schema();
  for (RelId rel = 0; rel < schema.num_relations(); ++rel) {
    const std::vector<FactId>& rel_facts = instance.facts_of(rel);
    for (const FD& fd : schema.fds(rel).fds()) {
      if (fd.IsTrivial()) {
        continue;
      }
      // Ablation baseline kept deliberately (see above); the production
      // join below is key-materialization-free.
      // NOLINT(prefrep-hotloop)
      std::unordered_map<std::vector<ValueId>,  // NOLINT(prefrep-hotloop)
                         std::unordered_map<std::vector<ValueId>,
                                            std::vector<FactId>,
                                            VectorHash<ValueId>>,
                         VectorHash<ValueId>>
          buckets;
      for (FactId f : rel_facts) {
        const Fact fact = instance.fact(f);
        buckets[project(fact, fd.lhs)][project(fact, fd.rhs)].push_back(f);
      }
      for (const auto& [lhs_key, sub_buckets] : buckets) {
        (void)lhs_key;
        if (sub_buckets.size() < 2) {
          continue;
        }
        std::vector<const std::vector<FactId>*> groups;
        groups.reserve(sub_buckets.size());
        for (const auto& [rhs_key, group] : sub_buckets) {
          (void)rhs_key;
          groups.push_back(&group);
        }
        for (size_t i = 0; i < groups.size(); ++i) {
          for (size_t j = i + 1; j < groups.size(); ++j) {
            for (FactId f : *groups[i]) {
              for (FactId g : *groups[j]) {
                out.emplace_back(std::min(f, g), std::max(f, g));
              }
            }
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

// One lhs bucket of the flat join: the seeded projection hash (for
// cheap slot rejection), a representative fact and a member count.
// Plain data — membership lives in a shared counting-sort arena, so
// building buckets allocates nothing per bucket.
struct LhsGroup {
  uint64_t hash = 0;
  FactId rep = kInvalidFactId;
  uint32_t count = 0;
  uint32_t begin = 0;  // offset of the bucket's run in the order arena
};

// The flat join core: for each relation and each FD A → B, group the
// facts by their A-projection, sub-grouped by B-projection; facts in
// different sub-groups of the same group are in δ-conflict.  Grouping
// is one open-addressing flat table per (rel, FD), keyed by the seeded
// hash of the projected lhs columns read straight off the columnar row
// — no key vectors, no per-bucket allocations: bucket membership is a
// counting sort into one reused arena (docs/memory-layout.md).  Emits
// raw (min, max) pairs, duplicated when a pair conflicts under several
// FDs; callers sort + unique.
void CollectFlatPairs(const Instance& instance,
                      std::vector<std::pair<FactId, FactId>>& out) {
  const Schema& schema = instance.schema();
  std::vector<uint32_t> slots;      // open-addressing table → group id
  std::vector<LhsGroup> groups;     // bucket metadata, reused
  std::vector<uint32_t> group_of;   // [fact position] → group id
  std::vector<FactId> order;        // facts laid out bucket-by-bucket
  std::vector<uint32_t> cursor;     // per-bucket write cursor
  std::vector<FactId> sub_reps;     // rhs-class representatives, reused
  std::vector<uint32_t> sub_of;     // [member position] → rhs class
  for (RelId rel = 0; rel < schema.num_relations(); ++rel) {
    const std::vector<FactId>& rel_facts = instance.facts_of(rel);
    if (rel_facts.size() < 2) {
      continue;
    }
    const size_t n = rel_facts.size();
    for (const FdProjection& p : BuildFdProjections(schema, rel)) {
      size_t cap = 16;
      while (cap < n * 2) {
        cap <<= 1;
      }
      const size_t mask = cap - 1;
      slots.assign(cap, UINT32_MAX);
      groups.clear();
      group_of.resize(n);
      // Pass 1: assign every fact its lhs bucket (probe by hash, verify
      // against the bucket representative's row — keys never leave the
      // arena).
      for (size_t k = 0; k < n; ++k) {
        const FactId f = rel_facts[k];
        const ValueId* row = instance.row(f);
        const uint64_t h = ProjectHash(row, p.lhs, p.lhs_seed);
        size_t i = h & mask;
        uint32_t gid;
        while (true) {
          const uint32_t s = slots[i];
          if (s == UINT32_MAX) {
            gid = static_cast<uint32_t>(groups.size());
            slots[i] = gid;
            groups.push_back(LhsGroup{h, f, 1, 0});
            break;
          }
          if (groups[s].hash == h &&
              RowsEqualOn(row, instance.row(groups[s].rep), p.lhs)) {
            gid = s;
            ++groups[s].count;
            break;
          }
          i = (i + 1) & mask;
        }
        group_of[k] = gid;
      }
      // Pass 2: counting sort the facts into per-bucket runs of one
      // shared arena (stable: insertion order within a bucket).
      uint32_t offset = 0;
      cursor.resize(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        groups[g].begin = offset;
        cursor[g] = offset;
        offset += groups[g].count;
      }
      order.resize(n);
      for (size_t k = 0; k < n; ++k) {
        order[cursor[group_of[k]]++] = rel_facts[k];
      }
      // Pass 3: within each bucket, classify members into rhs classes
      // by linear scan against class representatives, then emit one
      // pair per cross-class member pair.
      for (const LhsGroup& grp : groups) {
        if (grp.count < 2) {
          continue;
        }
        sub_reps.clear();
        sub_of.resize(grp.count);
        for (uint32_t m = 0; m < grp.count; ++m) {
          const FactId f = order[grp.begin + m];
          const ValueId* row = instance.row(f);
          uint32_t sid = UINT32_MAX;
          for (uint32_t s = 0; s < sub_reps.size(); ++s) {
            if (RowsEqualOn(row, instance.row(sub_reps[s]), p.rhs)) {
              sid = s;
              break;
            }
          }
          if (sid == UINT32_MAX) {
            sid = static_cast<uint32_t>(sub_reps.size());
            sub_reps.push_back(f);
          }
          sub_of[m] = sid;
        }
        if (sub_reps.size() < 2) {
          continue;
        }
        for (uint32_t i = 0; i < grp.count; ++i) {
          for (uint32_t j = i + 1; j < grp.count; ++j) {
            if (sub_of[i] != sub_of[j]) {
              const FactId f = order[grp.begin + i];
              const FactId g = order[grp.begin + j];
              out.emplace_back(std::min(f, g), std::max(f, g));
            }
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<std::pair<FactId, FactId>> AllConflictPairsFlat(
    const Instance& instance) {
  std::vector<std::pair<FactId, FactId>> out;
  CollectFlatPairs(instance, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ConflictGraph::ConflictGraph(const Instance& instance)
    : instance_(&instance) {
  const size_t n = instance.num_facts();
  const std::vector<std::pair<FactId, FactId>> edges =
      AllConflictPairsFlat(instance);
  num_edges_ = edges.size();

  // Derive adjacency from the sorted unique edge list.  Processing
  // lexicographically sorted (f, g) pairs appends to each adjacency
  // row in ascending order: row x first receives the f's of pairs
  // (f, x) — ascending, all below x — then the g's of pairs (x, g).
  std::vector<uint32_t> degree(n, 0);
  for (const auto& [f, g] : edges) {
    ++degree[f];
    ++degree[g];
  }
  adjacency_.assign(n, {});
  for (FactId f = 0; f < n; ++f) {
    adjacency_[f].reserve(degree[f]);
  }
  for (const auto& [f, g] : edges) {
    adjacency_[f].push_back(g);
    adjacency_[g].push_back(f);
  }
}

std::vector<std::pair<FactId, FactId>> ConflictGraph::edges() const {
  std::vector<std::pair<FactId, FactId>> out;
  out.reserve(num_edges_);
  for (FactId f = 0; f < adjacency_.size(); ++f) {
    for (FactId g : adjacency_[f]) {
      if (g > f) {
        out.emplace_back(f, g);
      }
    }
  }
  return out;
}

void ConflictGraph::ResizeUniverse(size_t num_facts) {
  PREFREP_CHECK_MSG(num_facts >= adjacency_.size(),
                    "the conflict-graph universe cannot shrink");
  adjacency_.resize(num_facts);
}

void ConflictGraph::AddConflictEdges(FactId f,
                                     const std::vector<FactId>& neighbors) {
  PREFREP_CHECK_MSG(f < adjacency_.size(), "fact id out of range");
  for (FactId g : neighbors) {
    PREFREP_CHECK_MSG(g < adjacency_.size() && g != f,
                      "bad conflict neighbor");
    std::vector<FactId>& adj_f = adjacency_[f];
    auto pos_f = std::lower_bound(adj_f.begin(), adj_f.end(), g);
    PREFREP_CHECK_MSG(pos_f == adj_f.end() || *pos_f != g,
                      "conflict edge inserted twice");
    adj_f.insert(pos_f, g);
    std::vector<FactId>& adj_g = adjacency_[g];
    adj_g.insert(std::lower_bound(adj_g.begin(), adj_g.end(), f), f);
    ++num_edges_;
  }
}

void ConflictGraph::RemoveIncidentEdges(FactId f) {
  PREFREP_CHECK_MSG(f < adjacency_.size(), "fact id out of range");
  for (FactId g : adjacency_[f]) {
    std::vector<FactId>& adj_g = adjacency_[g];
    adj_g.erase(std::remove(adj_g.begin(), adj_g.end(), f), adj_g.end());
  }
  num_edges_ -= adjacency_[f].size();
  adjacency_[f].clear();
}

bool ConflictGraph::ConflictsWithSet(FactId f,
                                     const DynamicBitset& sub) const {
  for (FactId g : neighbors(f)) {
    if (sub.test(g)) {
      return true;
    }
  }
  return false;
}

}  // namespace prefrep
