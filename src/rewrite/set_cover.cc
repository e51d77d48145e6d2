#include "rewrite/set_cover.h"

#include <algorithm>
#include <bit>
#include <set>

#include "common/budget.h"
#include "common/check.h"

namespace vbr {

namespace {

// DFS on the lowest uncovered element: every minimal cover contains, for the
// lowest uncovered element, some set covering it, so branching over those
// sets reaches every minimal (hence every minimum) cover.
//
// The first branching level (the sets containing the lowest element of the
// whole universe) splits the search into top-level branches. Each explores
// its subtree into private state under its own search-node cap, and the
// branch outputs are merged in branch order, which is the depth-first
// discovery order; the budget outcome and the `max_out` truncation point
// follow from that per-branch accounting.
class CoverSearch {
 public:
  CoverSearch(uint64_t universe, const std::vector<uint64_t>& sets)
      : universe_(universe), sets_(sets) {
    for (size_t i = 0; i < sets_.size(); ++i) {
      if (sets_[i] != 0) nonempty_.push_back(i);
    }
  }

  // Enumerates covers in depth-first discovery order, deduplicated,
  // capped at `max_out` distinct covers. With `require_exact`, only covers
  // of size exactly `depth_limit` are recorded (with the optimistic bound
  // pruning); otherwise every cover the branching reaches within
  // `depth_limit` picks is recorded and the caller filters for minimality.
  // Sets *truncated iff the distinct count reached the cap.
  // Sets *aborted when the governor stopped any branch early; found covers
  // remain genuine (each was verified complete when recorded).
  std::vector<std::vector<size_t>> Enumerate(size_t depth_limit,
                                             bool require_exact,
                                             size_t max_out, bool* truncated,
                                             size_t* branch_tasks,
                                             bool* aborted) {
    *truncated = false;
    if (universe_ == 0 || depth_limit == 0 || max_out == 0) return {};
    const uint64_t lowest = universe_ & (~universe_ + 1);
    std::vector<size_t> branch_sets;
    for (size_t i : nonempty_) {
      if ((sets_[i] & lowest) != 0) branch_sets.push_back(i);
    }
    if (branch_tasks != nullptr) *branch_tasks += branch_sets.size();

    std::vector<Branch> branches(branch_sets.size());
    for (size_t b = 0; b < branch_sets.size(); ++b) {
      Branch& branch = branches[b];
      branch.chosen.push_back(branch_sets[b]);
      Dfs(&branch, universe_ & ~sets_[branch_sets[b]], depth_limit,
          require_exact, max_out);
    }
    if (governor_ != nullptr) {
      // Each branch runs to completion or to its deterministic cap, so the
      // node total charged here is deterministic too.
      uint64_t nodes = 0;
      for (const Branch& branch : branches) {
        nodes += branch.nodes;
        if (branch.aborted) *aborted = true;
      }
      if (nodes > 0) governor_->ChargeWork(nodes);
    }

    // Merge in branch order with global deduplication; stop at the cap.
    std::set<std::vector<size_t>> seen;
    std::vector<std::vector<size_t>> out;
    for (const Branch& branch : branches) {
      for (const std::vector<size_t>& cover : branch.found) {
        if (seen.insert(cover).second) {
          out.push_back(cover);
          if (out.size() >= max_out) {
            *truncated = true;
            return out;
          }
        }
      }
    }
    return out;
  }

 private:
  struct Branch {
    std::vector<size_t> chosen;
    // Covers in discovery order, deduplicated within the branch (the merge
    // deduplicates across branches).
    std::vector<std::vector<size_t>> found;
    std::set<std::vector<size_t>> seen;
    uint64_t nodes = 0;
    bool aborted = false;
  };

  // Returns false when the branch hit its cap (no more output wanted).
  bool Dfs(Branch* branch, uint64_t uncovered, size_t depth_limit,
           bool require_exact, size_t max_out) const {
    if (governor_ != nullptr) {
      ++branch->nodes;
      // The cap is per branch and identical for every branch; KeepGoing
      // only observes the deadline and injected faults.
      if ((node_cap_ != 0 && branch->nodes > node_cap_) ||
          (branch->nodes % 64 == 0 &&
           !governor_->KeepGoing("corecover.set_cover"))) {
        branch->aborted = true;
        return false;
      }
    }
    if (uncovered == 0) {
      if (!require_exact || branch->chosen.size() == depth_limit) {
        std::vector<size_t> cover = branch->chosen;
        std::sort(cover.begin(), cover.end());
        if (branch->seen.insert(cover).second) {
          branch->found.push_back(std::move(cover));
          if (branch->found.size() >= max_out) return false;
        }
      }
      return true;
    }
    if (branch->chosen.size() >= depth_limit) return true;
    if (require_exact) {
      // Optimistic bound: each remaining pick covers all remaining elements
      // of some largest set; cheap bound via max popcount.
      const size_t remaining = depth_limit - branch->chosen.size();
      size_t max_cover = 0;
      for (size_t i : nonempty_) {
        max_cover = std::max(
            max_cover,
            static_cast<size_t>(std::popcount(sets_[i] & uncovered)));
      }
      if (max_cover * remaining <
          static_cast<size_t>(std::popcount(uncovered))) {
        return true;
      }
    }
    const uint64_t lowest = uncovered & (~uncovered + 1);
    for (size_t i : nonempty_) {
      if ((sets_[i] & lowest) == 0) continue;
      branch->chosen.push_back(i);
      const bool keep_going =
          Dfs(branch, uncovered & ~sets_[i], depth_limit, require_exact,
              max_out);
      branch->chosen.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  const uint64_t universe_;
  const std::vector<uint64_t>& sets_;
  std::vector<size_t> nonempty_;
  ResourceGovernor* const governor_ = ResourceGovernor::Current();
  const uint64_t node_cap_ = governor_ ? governor_->search_node_cap() : 0;
};

bool IsMinimalCover(uint64_t universe, const std::vector<uint64_t>& sets,
                    const std::vector<size_t>& cover) {
  for (size_t skip = 0; skip < cover.size(); ++skip) {
    uint64_t covered = 0;
    for (size_t j = 0; j < cover.size(); ++j) {
      if (j != skip) covered |= sets[cover[j]];
    }
    if ((covered & universe) == universe) return false;
  }
  return true;
}

}  // namespace

MinimumCoversResult FindAllMinimumCovers(uint64_t universe,
                                         const std::vector<uint64_t>& sets,
                                         size_t max_covers,
                                         size_t* branch_tasks) {
  MinimumCoversResult result;
  if (universe == 0) {
    result.feasible = true;
    result.min_size = 0;
    result.covers.push_back({});
    return result;
  }
  // Infeasible unless the union covers the universe.
  uint64_t all = 0;
  for (uint64_t s : sets) all |= s;
  if ((all & universe) != universe) return result;

  CoverSearch search(universe, sets);
  ResourceGovernor* const governor = ResourceGovernor::Current();
  const size_t max_depth =
      std::min<size_t>(sets.size(),
                       static_cast<size_t>(std::popcount(universe)));
  for (size_t k = 1; k <= max_depth; ++k) {
    // Per-cardinality checkpoint: the work total accumulated by depth k-1 is
    // deterministic, so a work budget latches here deterministically.
    if (governor != nullptr && !governor->CheckPoint("corecover.set_cover")) {
      result.aborted = true;
      return result;
    }
    bool truncated = false;
    bool aborted = false;
    std::vector<std::vector<size_t>> found =
        search.Enumerate(k, /*require_exact=*/true, max_covers, &truncated,
                         branch_tasks, &aborted);
    if (!found.empty()) {
      result.feasible = true;
      result.min_size = k;
      std::sort(found.begin(), found.end());
      result.covers = std::move(found);
      result.truncated = truncated;
      result.aborted = aborted;
      return result;
    }
    if (aborted) {
      // The search for cardinality k was cut short, so an empty result no
      // longer proves infeasibility at k; stop instead of reporting larger
      // covers as minimum.
      result.aborted = true;
      return result;
    }
  }
  VBR_CHECK_MSG(false, "set cover feasibility check disagreed with search");
  return result;
}

std::vector<std::vector<size_t>> FindAllMinimalCovers(
    uint64_t universe, const std::vector<uint64_t>& sets, size_t max_covers,
    bool* truncated, size_t* branch_tasks, bool* aborted) {
  if (aborted != nullptr) *aborted = false;
  if (universe == 0) {
    if (truncated != nullptr) *truncated = false;
    return {{}};
  }
  // Pre-search checkpoint, mirroring the per-cardinality one in
  // FindAllMinimumCovers: the work accumulated by the earlier stages is
  // deterministic, so a work budget latches here deterministically (the
  // in-search KeepGoing only observes deadlines and injected faults).
  ResourceGovernor* const governor = ResourceGovernor::Current();
  if (governor != nullptr && !governor->CheckPoint("corecover.set_cover")) {
    if (truncated != nullptr) *truncated = false;
    if (aborted != nullptr) *aborted = true;
    return {};
  }
  CoverSearch search(universe, sets);
  bool hit_cap = false;
  bool hit_budget = false;
  std::vector<std::vector<size_t>> found =
      search.Enumerate(sets.size(), /*require_exact=*/false, max_covers,
                       &hit_cap, branch_tasks, &hit_budget);
  if (truncated != nullptr) *truncated = hit_cap;
  if (aborted != nullptr) *aborted = hit_budget;
  std::sort(found.begin(), found.end());
  std::vector<std::vector<size_t>> result;
  for (std::vector<size_t>& cover : found) {
    if (IsMinimalCover(universe, sets, cover)) {
      result.push_back(std::move(cover));
    }
  }
  return result;
}

}  // namespace vbr
