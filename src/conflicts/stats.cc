#include "conflicts/stats.h"

#include <cmath>
#include <map>

#include "base/string_util.h"
#include "conflicts/blocks.h"

namespace prefrep {

namespace {

// Union-find over fact ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    for (size_t i = 0; i < n; ++i) {
      parent_[i] = i;
    }
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return;
    }
    if (size_[a] < size_[b]) {
      std::swap(a, b);
    }
    parent_[b] = a;
    size_[a] += size_[b];
  }

  size_t ComponentSize(size_t x) { return size_[Find(x)]; }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
};

}  // namespace

std::vector<size_t> ConflictComponents(const ConflictGraph& cg,
                                       size_t* num_components) {
  size_t n = cg.num_facts();
  UnionFind uf(n);
  for (const auto& [f, g] : cg.edges()) {
    uf.Union(f, g);
  }
  std::vector<size_t> component(n, SIZE_MAX);
  size_t next = 0;
  for (size_t f = 0; f < n; ++f) {
    size_t root = uf.Find(f);
    if (component[root] == SIZE_MAX) {
      component[root] = next++;
    }
    component[f] = component[root];
  }
  if (num_components != nullptr) {
    *num_components = next;
  }
  return component;
}

ConflictStats ComputeConflictStats(const ConflictGraph& cg) {
  ConflictStats stats;
  stats.num_facts = cg.num_facts();
  stats.num_conflicts = cg.num_edges();
  for (FactId f = 0; f < cg.num_facts(); ++f) {
    size_t degree = cg.neighbors(f).size();
    if (degree > 0) {
      ++stats.conflicting_facts;
    }
    stats.max_degree = std::max(stats.max_degree, degree);
  }
  // The conflict graph's own components: an empty priority joins none.
  const PriorityRelation no_priority(&cg.instance());
  BlockDecomposition blocks(cg, no_priority);
  stats.num_components = blocks.num_blocks();
  stats.largest_component = blocks.largest_block();
  stats.free_facts = blocks.free_facts().count();
  std::map<size_t, size_t> histogram;
  for (const Block& block : blocks.blocks()) {
    ++histogram[block.size()];
    // Moon–Moser: a graph on k vertices has ≤ 3^(k/3) maximal
    // independent sets; repairs multiply across blocks.
    stats.log2_repair_upper_bound +=
        static_cast<double>(block.size()) / 3.0 * std::log2(3.0);
  }
  stats.block_size_histogram.assign(histogram.begin(), histogram.end());
  return stats;
}

std::string ConflictStats::ToString() const {
  std::string out = StrFormat(
      "%zu facts, %zu conflicts (%zu facts contested, max degree %zu); "
      "%zu block(s), largest %zu, %zu free fact(s); repairs <= 2^%.1f",
      num_facts, num_conflicts, conflicting_facts, max_degree,
      num_components, largest_component, free_facts,
      log2_repair_upper_bound);
  if (!block_size_histogram.empty()) {
    out += "; block sizes:";
    for (const auto& [size, count] : block_size_histogram) {
      out += StrFormat(" %zux%zu", count, size);
    }
  }
  return out;
}

}  // namespace prefrep
