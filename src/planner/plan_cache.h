#ifndef VBR_PLANNER_PLAN_CACHE_H_
#define VBR_PLANNER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "cost/cost_model.h"
#include "cq/fingerprint.h"
#include "cq/query.h"
#include "rewrite/certificate.h"
#include "rewrite/core_cover.h"
#include "rewrite/view_index.h"

namespace vbr {

// The cached logical outcome of one CoreCover / CoreCoverStar run, stored in
// CANONICAL variable space (every variable renamed by the inserting query's
// canonical labeling, see cq/fingerprint.h). CoreCover's logical output
// depends only on the query and the view DEFINITIONS — never on the view
// instances — so entries stay valid while the view set is unchanged and are
// re-costed against current instance sizes on every hit.
struct CachedPlan {
  // Fingerprint of the inserting query; `canonical` names the variable
  // space the fields below live in.
  QueryFingerprint fingerprint;
  // CoreCover outcome. Negative outcomes (no rewriting / unsupported) are
  // cached too, so repeated unanswerable queries stay cheap.
  CoreCoverStatus status = CoreCoverStatus::kOk;
  std::string error;
  bool has_rewriting = false;
  // The minimized core the rewritings are stated over.
  ConjunctiveQuery minimized;
  // All rewritings CoreCover emitted, in emission order.
  std::vector<ConjunctiveQuery> rewritings;
  // Empty-core view-tuple atoms: the filter candidates the M2/M3 costing
  // loop may append (instance-dependent, so the CHOICE is not cached).
  std::vector<Atom> filter_atoms;
  // Stats of the original planning run (timings describe that run).
  CoreCoverStats stats;

  // Equivalence certificates, parallel to `rewritings`, filled lazily as
  // winners get certified (certifying every rewriting up front would cost
  // more than it saves). Monotone under `cert_mu`: a slot goes absent ->
  // present once and is never replaced.
  std::optional<EquivalenceCertificate> certificate(size_t index) const;
  void StoreCertificate(size_t index, EquivalenceCertificate certificate) const;

 private:
  mutable std::mutex cert_mu_;
  mutable std::vector<std::optional<EquivalenceCertificate>> certificates_;
};

// Snapshot of one cache's counters. The live counters are metrics::Counter
// instruments (common/metrics.h); each PlanCache also mirrors its updates
// into the global MetricsRegistry under "planner.cache.*" so process-wide
// exports aggregate across planners.
struct PlanCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  // LRU evictions plus entries dropped by epoch invalidation.
  uint64_t evictions = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// A thread-safe, sharded LRU cache of CachedPlan entries keyed by
// (query fingerprint, cost model, view-set epoch).
//
//  * Sharding: entries are distributed over independently locked shards by
//    fingerprint hash; concurrent lookups of different queries contend only
//    on distinct shard mutexes and the (atomic) counters.
//  * LRU: each shard evicts its least-recently-used entry once past its
//    share of the capacity.
//  * Epoch: BumpEpoch() (called when the view set is replaced wholesale)
//    invalidates every existing entry; entries carry the epoch they were
//    inserted under, and a lookup never returns an entry from a different
//    epoch. Callers that plan against an RCU view-set snapshot (planner.h)
//    pass the snapshot's epoch explicitly, so a request that raced
//    ReplaceViews stays internally consistent: its lookups and inserts are
//    keyed to the view set it actually planned against, and an insert
//    under a stale epoch is silently dropped.
//  * Delta epoch: AddViews/RemoveViews are small catalog changes that
//    leave most cached plans untouched, so instead of bumping the global
//    epoch they call RecordDelta() with summaries of the CHANGED views
//    only. That advances a second counter and pushes a "fence" carrying
//    those summaries. An entry and a lookup at different delta epochs are
//    reconciled per-entry: the entry stays valid iff NO fence between the
//    two epochs (in either direction — the caller may be pinned to an
//    older snapshot than the entry) carries a changed view that is a
//    kCoverAll candidate for the entry's minimized query. A non-candidate
//    view cannot appear in any rewriting of the query nor enable a new
//    one (rewrite/view_index.h), so the cached outcome is unaffected by
//    its arrival or departure. The fence history is bounded
//    (kMaxDeltaFences); when a fence has been discarded the check turns
//    conservative and treats the entry as invalid.
//  * Collisions: a lookup matches on the full canonical string, not just
//    the 64-bit hash. If either fingerprint is inexact (canonical-labeling
//    budget exhausted — pathological symmetry), the match falls back to a
//    FindIsomorphism() check and reports the witnessing renaming.
class PlanCache {
 public:
  using EntryPtr = std::shared_ptr<const CachedPlan>;

  // `capacity` is the total entry budget, split evenly across `num_shards`
  // shards (each shard holds at least one entry).
  explicit PlanCache(size_t capacity, size_t num_shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Sentinel for the epoch parameters below: "use the cache's current
  // epoch" (the right choice when the caller is not pinned to a snapshot).
  static constexpr uint64_t kCurrentEpoch = UINT64_MAX;
  // Same sentinel for the delta-epoch parameters.
  static constexpr uint64_t kCurrentDeltaEpoch = UINT64_MAX;
  // Fences retained for the delta validity check; once a delta is older
  // than the newest kMaxDeltaFences fences, entries from before it are
  // conservatively treated as invalidated.
  static constexpr size_t kMaxDeltaFences = 64;

  // Returns the entry for (fp, model) in `epoch`, or nullptr. `minimized`
  // is the caller's minimized query (its own variable names), used only for
  // the inexact-fingerprint isomorphism fallback; when the match came from
  // that fallback, *fallback_transport receives the renaming
  // entry-canonical-vars -> caller-vars (otherwise it is reset, and the
  // caller's own from_canonical mapping applies). `delta_epoch` is the
  // caller's pinned delta epoch; an entry whose candidate set could have
  // changed between its delta epoch and the caller's is never returned
  // (and is dropped when it is also stale for the CURRENT delta epoch).
  EntryPtr Lookup(const QueryFingerprint& fp, CostModel model,
                  const ConjunctiveQuery& minimized,
                  std::optional<Substitution>* fallback_transport,
                  uint64_t epoch = kCurrentEpoch,
                  uint64_t delta_epoch = kCurrentDeltaEpoch);

  // Inserts `entry` (keyed by entry->fingerprint) under `epoch`, evicting
  // LRU entries as needed. Re-inserting an existing key refreshes the
  // stored entry (and its delta epoch). An insert under an epoch that is
  // no longer current is a no-op: the planning run raced a ReplaceViews
  // and its outcome describes a retired view set. An insert under a STALE
  // delta epoch is kept — the fence check at lookup time decides, per
  // query, whether the intervening deltas could have affected it.
  void Insert(CostModel model, EntryPtr entry,
              uint64_t epoch = kCurrentEpoch,
              uint64_t delta_epoch = kCurrentDeltaEpoch);

  // Invalidates every entry: the epoch counter is bumped and all shards are
  // purged (the dropped entries count as evictions). Returns the new epoch.
  uint64_t BumpEpoch();

  // Records one AddViews/RemoveViews delta: advances the delta epoch and
  // fences it with the summaries of the changed views. Returns the new
  // delta epoch. Callers MUST record the delta before publishing the new
  // catalog snapshot, so no request can plan against the new catalog under
  // a pre-fence delta epoch.
  uint64_t RecordDelta(std::vector<ViewSummary> changed_views);

  // Fast-forwards the delta epoch to at least `delta_epoch` without a
  // fence (snapshot restore: the epochs in between carry no changes this
  // process ever saw, and the restored entries describe the restored
  // catalog). No-op when the counter is already past it.
  void AdvanceDeltaEpochTo(uint64_t delta_epoch);

  uint64_t delta_epoch() const {
    return delta_epoch_.load(std::memory_order_acquire);
  }

  // Snapshot support (planner/snapshot.h): every entry living under the
  // CURRENT epoch, coldest-first per shard, so re-Inserting them in order
  // into a fresh cache reproduces the recency order. Entries are shared
  // (not copied); CachedPlan is immutable apart from its monotone
  // certificate slots, so the export stays valid while the cache moves on.
  std::vector<std::pair<CostModel, EntryPtr>> ExportEntries() const;

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheCounters counters() const;
  void Clear();

 private:
  struct Node {
    CostModel model = CostModel::kM1;
    uint64_t epoch = 0;
    uint64_t delta_epoch = 0;
    EntryPtr entry;
  };
  // One AddViews/RemoveViews mutation: everything at delta epoch `id` and
  // later planned against a catalog where `changed` had been applied.
  struct DeltaFence {
    uint64_t id = 0;
    std::vector<ViewSummary> changed;
  };
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used.
    std::list<Node> lru;
    // hash -> node; multimap to tolerate 64-bit hash collisions.
    std::unordered_multimap<uint64_t, std::list<Node>::iterator> index;
  };

  Shard& ShardFor(uint64_t hash) { return shards_[hash % shards_.size()]; }
  // Unlinks `it` from `shard` (index + list). Caller holds shard.mu.
  void Erase(Shard& shard, std::list<Node>::iterator it);

  // True iff no delta fence strictly between min(a, b) and max(a, b)
  // (inclusive on the high side) changed a view that is a kCoverAll
  // candidate for `entry`'s minimized query; conservatively false when
  // part of that range has been discarded from the fence history. Locks
  // fence_mu_ (safe under shard.mu: fence_mu_ is a leaf lock).
  bool EntryValidAcrossDeltas(const CachedPlan& entry, uint64_t a,
                              uint64_t b) const;

  // Bumps a per-instance counter and its global "planner.cache.*" mirror.
  struct MirroredCounter {
    Counter local;
    Counter* global = nullptr;
    void Add(uint64_t n) {
      local.Add(n);
      global->Add(n);
    }
    void Increment() { Add(1); }
  };

  const size_t capacity_;
  const size_t shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> delta_epoch_{0};
  // Guards fences_ / evicted_fences_upto_. Leaf lock: acquired under
  // shard.mu (never the reverse).
  mutable std::mutex fence_mu_;
  std::deque<DeltaFence> fences_;
  // Fences with id <= this value have been discarded; validity ranges
  // reaching below it cannot be checked and read as invalid.
  uint64_t evicted_fences_upto_ = 0;
  MirroredCounter hits_;
  MirroredCounter misses_;
  MirroredCounter insertions_;
  MirroredCounter evictions_;
};

}  // namespace vbr

#endif  // VBR_PLANNER_PLAN_CACHE_H_
