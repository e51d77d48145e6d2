#include "planner/plan_cache.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace vbr {

std::optional<EquivalenceCertificate> CachedPlan::certificate(
    size_t index) const {
  std::lock_guard<std::mutex> lock(cert_mu_);
  if (index >= certificates_.size()) return std::nullopt;
  return certificates_[index];
}

void CachedPlan::StoreCertificate(size_t index,
                                  EquivalenceCertificate certificate) const {
  std::lock_guard<std::mutex> lock(cert_mu_);
  if (certificates_.size() < rewritings.size()) {
    certificates_.resize(rewritings.size());
  }
  VBR_CHECK(index < certificates_.size());
  if (!certificates_[index].has_value()) {
    certificates_[index] = std::move(certificate);
  }
}

PlanCache::PlanCache(size_t capacity, size_t num_shards)
    : capacity_(std::max<size_t>(capacity, 1)),
      shard_capacity_(std::max<size_t>(
          capacity_ / std::max<size_t>(std::min(num_shards, capacity_), 1),
          1)),
      shards_(std::max<size_t>(std::min(num_shards, capacity_), 1)) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  hits_.global = registry.GetCounter("planner.cache.hits");
  misses_.global = registry.GetCounter("planner.cache.misses");
  insertions_.global = registry.GetCounter("planner.cache.insertions");
  evictions_.global = registry.GetCounter("planner.cache.evictions");
}

void PlanCache::Erase(Shard& shard, std::list<Node>::iterator it) {
  const uint64_t hash = it->entry->fingerprint.hash;
  auto [begin, end] = shard.index.equal_range(hash);
  for (auto idx = begin; idx != end; ++idx) {
    if (idx->second == it) {
      shard.index.erase(idx);
      break;
    }
  }
  shard.lru.erase(it);
}

bool PlanCache::EntryValidAcrossDeltas(const CachedPlan& entry, uint64_t a,
                                       uint64_t b) const {
  if (a == b) return true;
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  std::lock_guard<std::mutex> lock(fence_mu_);
  // Part of the (lo, hi] range predates the retained fence history: the
  // changed views are unknown, so the entry must read as invalidated.
  if (lo < evicted_fences_upto_) return false;
  std::optional<QueryBodySummary> q;
  for (const DeltaFence& fence : fences_) {
    if (fence.id <= lo || fence.id > hi) continue;
    if (!q.has_value()) q = SummarizeQueryBody(entry.minimized);
    for (const ViewSummary& changed : fence.changed) {
      // A changed view that is a kCoverAll candidate for the entry's
      // minimized query could appear in (or newly enable) a rewriting;
      // anything else provably contributes no view tuple, so the cached
      // outcome is identical on both sides of the fence. The minimized
      // query's summary is renaming-invariant, so testing the cached
      // canonical-space copy is exact. (MiniCon-fallback outcomes are
      // never cached — planner.cc — so kCoverAll is the right mode.)
      if (ViewMayContribute(changed, *q, CandidateMode::kCoverAll)) {
        return false;
      }
    }
  }
  return true;
}

PlanCache::EntryPtr PlanCache::Lookup(
    const QueryFingerprint& fp, CostModel model,
    const ConjunctiveQuery& minimized,
    std::optional<Substitution>* fallback_transport, uint64_t epoch,
    uint64_t delta_epoch) {
  fallback_transport->reset();
  if (epoch == kCurrentEpoch) epoch = this->epoch();
  if (delta_epoch == kCurrentDeltaEpoch) delta_epoch = this->delta_epoch();
  Shard& shard = ShardFor(fp.hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint64_t current = this->epoch();
  const uint64_t current_delta = this->delta_epoch();
  auto [begin, end] = shard.index.equal_range(fp.hash);
  for (auto idx = begin; idx != end;) {
    const auto it = idx->second;
    if (it->epoch != epoch) {
      ++idx;  // advance before Erase invalidates this index iterator
      if (it->epoch != current) {
        // Straggler from before a view-set change; drop it. (An entry from
        // the CURRENT epoch is kept even when the caller is pinned to an
        // older snapshot — it is valid for everyone else.)
        evictions_.Increment();
        Erase(shard, it);
      }
      continue;
    }
    if (it->model == model) {
      bool match = it->entry->fingerprint.canonical == fp.canonical;
      if (!match && (!fp.exact || !it->entry->fingerprint.exact)) {
        // Inexact labeling on either side: the canonical strings may
        // disagree even for isomorphic queries, so decide by search.
        auto iso = FindIsomorphism(it->entry->minimized, minimized);
        if (iso.has_value()) {
          *fallback_transport = std::move(iso);
          match = true;
        }
      }
      if (match &&
          !EntryValidAcrossDeltas(*it->entry, it->delta_epoch, delta_epoch)) {
        // A delta between the entry's catalog and the caller's could have
        // changed this query's candidate set: not servable here.
        fallback_transport->reset();
        ++idx;
        if (!EntryValidAcrossDeltas(*it->entry, it->delta_epoch,
                                    current_delta)) {
          // ... and not servable to anyone at the current delta epoch
          // either — permanently stale, drop it. (Kept when only the
          // CALLER is pinned behind the delta; the entry still serves
          // everyone else.)
          evictions_.Increment();
          Erase(shard, it);
        }
        continue;
      }
      if (match) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        hits_.Increment();
        return it->entry;
      }
    }
    ++idx;
  }
  misses_.Increment();
  return nullptr;
}

void PlanCache::Insert(CostModel model, EntryPtr entry, uint64_t epoch,
                       uint64_t delta_epoch) {
  VBR_CHECK(entry != nullptr);
  if (epoch == kCurrentEpoch) {
    epoch = this->epoch();
  } else if (epoch != this->epoch()) {
    // The planning run raced a ReplaceViews: its outcome describes a
    // retired view set, so caching it would serve stale plans.
    return;
  }
  if (delta_epoch == kCurrentDeltaEpoch) delta_epoch = this->delta_epoch();
  const uint64_t hash = entry->fingerprint.hash;
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Refresh an existing node for the same key rather than duplicating it.
  auto [begin, end] = shard.index.equal_range(hash);
  for (auto idx = begin; idx != end; ++idx) {
    const auto it = idx->second;
    if (it->model == model && it->epoch == epoch &&
        it->entry->fingerprint.canonical == entry->fingerprint.canonical) {
      // Entry and its delta epoch move together: stamping the old content
      // with the new delta epoch (or vice versa) would launder a stale
      // plan past the fence check.
      it->entry = std::move(entry);
      it->delta_epoch = delta_epoch;
      shard.lru.splice(shard.lru.begin(), shard.lru, it);
      return;
    }
  }
  shard.lru.push_front(Node{model, epoch, delta_epoch, std::move(entry)});
  shard.index.emplace(hash, shard.lru.begin());
  insertions_.Increment();
  while (shard.lru.size() > shard_capacity_) {
    evictions_.Increment();
    Erase(shard, std::prev(shard.lru.end()));
  }
}

std::vector<std::pair<CostModel, PlanCache::EntryPtr>>
PlanCache::ExportEntries() const {
  const uint64_t current = epoch();
  const uint64_t current_delta = delta_epoch();
  std::vector<std::pair<CostModel, EntryPtr>> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Front = most recently used; walk back-to-front for coldest-first.
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      if (it->epoch != current) continue;
      // A fence-stale entry Lookup would refuse to serve must not escape
      // into a snapshot (it would resurrect on load with a fresh delta
      // epoch and no fence history to convict it).
      if (!EntryValidAcrossDeltas(*it->entry, it->delta_epoch,
                                  current_delta)) {
        continue;
      }
      out.emplace_back(it->model, it->entry);
    }
  }
  return out;
}

uint64_t PlanCache::RecordDelta(std::vector<ViewSummary> changed_views) {
  std::lock_guard<std::mutex> lock(fence_mu_);
  const uint64_t next =
      delta_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  fences_.push_back(DeltaFence{next, std::move(changed_views)});
  while (fences_.size() > kMaxDeltaFences) {
    evicted_fences_upto_ = fences_.front().id;
    fences_.pop_front();
  }
  return next;
}

void PlanCache::AdvanceDeltaEpochTo(uint64_t delta_epoch) {
  std::lock_guard<std::mutex> lock(fence_mu_);
  uint64_t cur = delta_epoch_.load(std::memory_order_acquire);
  while (cur < delta_epoch &&
         !delta_epoch_.compare_exchange_weak(cur, delta_epoch,
                                             std::memory_order_acq_rel)) {
  }
}

uint64_t PlanCache::BumpEpoch() {
  const uint64_t next = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Purge eagerly so invalidated entries stop occupying capacity. Lookup
  // also skips (and drops) any straggler inserted around the bump.
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    evictions_.Add(shard.lru.size());
    shard.index.clear();
    shard.lru.clear();
  }
  return next;
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

PlanCacheCounters PlanCache::counters() const {
  PlanCacheCounters c;
  c.hits = hits_.local.value();
  c.misses = misses_.local.value();
  c.insertions = insertions_.local.value();
  c.evictions = evictions_.local.value();
  return c;
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.index.clear();
    shard.lru.clear();
  }
}

}  // namespace vbr
