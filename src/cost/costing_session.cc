#include "cost/costing_session.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/budget.h"
#include "common/check.h"
#include "common/metrics.h"
#include "engine/evaluator.h"

namespace vbr {

namespace {

// The innermost CostingScope of this thread and the lookups it has served.
struct ScopeState {
  CostingSession* session = nullptr;
  const Database* db = nullptr;
  uint64_t hits = 0;
  uint64_t misses = 0;
};
thread_local ScopeState g_scope;

CostingSession* SessionFor(const Database& db) {
  return g_scope.db == &db ? g_scope.session : nullptr;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Token stream -> 128-bit fingerprint, with variables numbered by first
// occurrence so the key does not depend on their names.
class KeyBuilder {
 public:
  // `domain` separates the kinds of measurement sharing one table.
  explicit KeyBuilder(uint64_t domain) { Add(domain); }

  void Add(uint64_t token) {
    hi_ = Mix64(hi_ + token * 0x9e3779b97f4a7c15ULL);
    lo_ = Mix64((lo_ ^ token) * 0xd6e8feb86659fd93ULL + 0x632be59bd9b4e019ULL);
  }

  void AddTerm(Term t) {
    if (t.is_constant()) {
      Add((uint64_t{1} << 62) | static_cast<uint32_t>(t.symbol()));
      return;
    }
    const auto it = std::find(vars_.begin(), vars_.end(), t.symbol());
    const uint64_t number = static_cast<uint64_t>(it - vars_.begin());
    if (it == vars_.end()) vars_.push_back(t.symbol());
    Add((uint64_t{2} << 62) | number);
  }

  void AddAtom(const Atom& atom) {
    Add((uint64_t{3} << 62) |
        (uint64_t{static_cast<uint32_t>(atom.predicate())} << 16) |
        atom.arity());
    for (Term t : atom.args()) AddTerm(t);
  }

  CostingSession::Key key() const {
    // Never the all-zero empty-slot marker.
    return {hi_, lo_ | 1};
  }

 private:
  uint64_t hi_ = 0x243f6a8885a308d3ULL;
  uint64_t lo_ = 0x13198a2e03707344ULL;
  std::vector<Symbol> vars_;
};

constexpr uint64_t kIrDomain = 1;
constexpr uint64_t kPlanDomain = 2;

// a * b, or SIZE_MAX when that overflows.
size_t SaturatingMultiply(size_t a, size_t b) {
  if (a != 0 && b > std::numeric_limits<size_t>::max() / a) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

// A measurement taken while the governor is exhausted may be partial.
bool MeasurementFinished() {
  const ResourceGovernor* const governor = ResourceGovernor::Current();
  return governor == nullptr || !governor->exhausted();
}

}  // namespace

CostingSession::CostingSession() = default;
CostingSession::~CostingSession() = default;

std::optional<uint64_t> CostingSession::Lookup(const Key& key) const {
  const Shard& shard = shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots == nullptr) return std::nullopt;
  const Slot* set = &shard.slots[SetIndex(key)];
  for (size_t way = 0; way < 2; ++way) {
    if (set[way].hi == key.hi && set[way].lo == key.lo) return set[way].value;
  }
  return std::nullopt;
}

void CostingSession::Store(const Key& key, uint64_t value) {
  Shard& shard = shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots == nullptr) {
    shard.slots = std::make_unique<Slot[]>(kSlotsPerShard);
  }
  Slot* set = &shard.slots[SetIndex(key)];
  if (set[0].hi != key.hi || set[0].lo != key.lo) set[1] = set[0];
  set[0] = {key.hi, key.lo, value};
}

CostingScope::CostingScope(CostingSession* session, const Database& db)
    : previous_session_(g_scope.session),
      previous_db_(g_scope.db),
      previous_hits_(g_scope.hits),
      previous_misses_(g_scope.misses) {
  g_scope = {session, &db, 0, 0};
}

CostingScope::~CostingScope() {
  // Published once per scope, not per lookup: the counters are shared by
  // every planning thread.
  static Counter* const hits =
      MetricsRegistry::Global().GetCounter("cost.memo_hits");
  static Counter* const misses =
      MetricsRegistry::Global().GetCounter("cost.memo_misses");
  if (g_scope.hits != 0) hits->Add(g_scope.hits);
  if (g_scope.misses != 0) misses->Add(g_scope.misses);
  g_scope = {previous_session_, previous_db_, previous_hits_,
             previous_misses_};
}

IrSizer::IrSizer(const ConjunctiveQuery& rewriting, const Database& db)
    : rewriting_(rewriting), db_(db), neighbors_(rewriting.num_subgoals(), 0) {
  const size_t n = rewriting.num_subgoals();
  VBR_CHECK_MSG(n <= 32, "IrSizer masks hold at most 32 subgoals");
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      bool shared = false;
      for (Term a : rewriting.subgoal(i).args()) {
        if (!a.is_variable()) continue;
        for (Term b : rewriting.subgoal(j).args()) shared = shared || a == b;
      }
      if (shared) {
        neighbors_[i] |= uint32_t{1} << j;
        neighbors_[j] |= uint32_t{1} << i;
      }
    }
  }
}

size_t IrSizer::operator()(uint32_t mask) const {
  // Components share no variable, so their join is a cartesian product and
  // |IR| the product of their sizes; an empty component empties it.
  size_t product = 1;
  while (mask != 0 && product != 0) {
    uint32_t component = mask & (~mask + 1);  // lowest subgoal
    uint32_t frontier = component;
    while (frontier != 0) {
      const int i = std::countr_zero(frontier);
      frontier &= frontier - 1;
      const uint32_t reached = neighbors_[i] & mask & ~component;
      component |= reached;
      frontier |= reached;
    }
    mask &= ~component;
    product = SaturatingMultiply(product, ConnectedSize(component));
  }
  return product;
}

size_t IrSizer::ConnectedSize(uint32_t mask) const {
  CostingSession* const session = SessionFor(db_);
  CostingSession::Key key;
  if (session != nullptr) {
    KeyBuilder builder(kIrDomain);
    for (uint32_t m = mask; m != 0; m &= m - 1) {
      builder.AddAtom(rewriting_.subgoal(std::countr_zero(m)));
    }
    key = builder.key();
    if (const std::optional<uint64_t> size = session->Lookup(key)) {
      ++g_scope.hits;
      return *size;
    }
    ++g_scope.misses;
  }
  std::vector<Atom> atoms;
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    atoms.push_back(rewriting_.subgoal(std::countr_zero(m)));
  }
  const size_t size = JoinSize(atoms, db_);
  if (session != nullptr && MeasurementFinished()) session->Store(key, size);
  return size;
}

size_t MeasuredPlanCost(const PhysicalPlan& plan, const Database& db) {
  CostingSession* const session = SessionFor(db);
  if (session == nullptr) return ExecutePlan(plan, db).TotalCost();
  // TotalCost depends on the steps and their drops; the head rides along so
  // a hit stands for exactly the plan ExecutePlan would have run.
  KeyBuilder builder(kPlanDomain);
  for (size_t k = 0; k < plan.order.size(); ++k) {
    builder.AddAtom(plan.rewriting.subgoal(plan.order[k]));
    if (k < plan.drop_after.size()) {
      builder.Add(plan.drop_after[k].size());
      for (Term t : plan.drop_after[k]) builder.AddTerm(t);
    }
  }
  builder.AddAtom(plan.rewriting.head());
  const CostingSession::Key key = builder.key();
  if (const std::optional<uint64_t> cost = session->Lookup(key)) {
    ++g_scope.hits;
    return *cost;
  }
  ++g_scope.misses;
  const PlanExecution execution = ExecutePlan(plan, db);
  if (!execution.aborted && MeasurementFinished()) {
    session->Store(key, execution.TotalCost());
  }
  return execution.TotalCost();
}

}  // namespace vbr
