#ifndef VBR_REWRITE_SET_COVER_H_
#define VBR_REWRITE_SET_COVER_H_

#include <stddef.h>

#include <cstdint>
#include <vector>

namespace vbr {

// Exact set covering over a universe of at most 64 elements, used by
// CoreCover to cover query subgoals with tuple-cores (Section 4.2) and by
// CoreCover* to enumerate all minimal covers (Section 5.1). Sets are
// bitmasks; a cover is a sorted list of set indices.
//
// CONTRACT — the 64-element cap: universes and sets are uint64_t bitmasks,
// so element indices must be < 64. This is what limits the whole CoreCover
// pipeline to minimized queries of at most 64 subgoals (tuple-cores are
// masks over query subgoals, see tuple_core.h). CoreCover reports larger
// queries as CoreCoverStatus::kUnsupportedQueryTooLarge instead of running;
// direct callers of these functions must enforce the cap themselves.
//
// Both enumerations branch, for the lowest uncovered element, over every set
// containing it, in depth-first discovery order. `branch_tasks`, when
// non-null, is incremented by the number of top-level branches explored (a
// deterministic work counter surfaced in CoreCoverStats).

struct MinimumCoversResult {
  // True if some cover exists.
  bool feasible = false;
  // Cardinality of a minimum cover (0 only for an empty universe).
  size_t min_size = 0;
  // All distinct covers of cardinality min_size, each sorted ascending,
  // capped at max_covers.
  std::vector<std::vector<size_t>> covers;
  // True if the cap truncated the enumeration.
  bool truncated = false;
  // True if the thread's ResourceGovernor stopped the search early. Every
  // returned cover is still a genuine cover, but the enumeration may be
  // incomplete and `covers` may not be of globally minimum cardinality.
  bool aborted = false;
};

// All minimum-cardinality covers of `universe` by `sets`.
MinimumCoversResult FindAllMinimumCovers(uint64_t universe,
                                         const std::vector<uint64_t>& sets,
                                         size_t max_covers = 1024,
                                         size_t* branch_tasks = nullptr);

// All minimal (irredundant) covers: covers from which no set can be removed.
// Every minimum cover is minimal; minimal covers of larger cardinality are
// the extra logical plans CoreCover* passes to the M2 optimizer.
// `aborted`, when non-null, is set iff the thread's ResourceGovernor stopped
// the enumeration early (returned covers are genuine but possibly not all).
std::vector<std::vector<size_t>> FindAllMinimalCovers(
    uint64_t universe, const std::vector<uint64_t>& sets,
    size_t max_covers = 4096, bool* truncated = nullptr,
    size_t* branch_tasks = nullptr, bool* aborted = nullptr);

}  // namespace vbr

#endif  // VBR_REWRITE_SET_COVER_H_
