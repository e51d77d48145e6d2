#include "cost/estimator.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "engine/value.h"

namespace vbr {

StatsCatalog StatsCatalog::Collect(const Database& db) {
  StatsCatalog catalog;
  for (Symbol predicate : db.Predicates()) {
    const Relation& rel = *db.Find(predicate);
    RelationStats stats;
    stats.rows = rel.size();
    stats.distinct.resize(rel.arity(), 0);
    for (size_t col = 0; col < rel.arity(); ++col) {
      std::unordered_set<Value> values;
      for (size_t r = 0; r < rel.size(); ++r) {
        values.insert(rel.row(r)[col]);
      }
      stats.distinct[col] = values.size();
    }
    catalog.stats_.emplace(predicate, std::move(stats));
  }
  return catalog;
}

const RelationStats* StatsCatalog::Find(Symbol predicate) const {
  auto it = stats_.find(predicate);
  return it == stats_.end() ? nullptr : &it->second;
}

double EstimateJoinSize(const std::vector<Atom>& atoms,
                        const StatsCatalog& catalog) {
  if (atoms.empty()) return 1.0;
  double size = 1.0;
  // (atom index, position) occurrences per variable; constants collected
  // with their column's distinct count.
  std::unordered_map<Symbol, std::vector<size_t>> var_distincts;
  std::vector<size_t> constant_distincts;

  for (const Atom& atom : atoms) {
    VBR_CHECK_MSG(!atom.is_builtin(),
                  "the estimator handles relational atoms only");
    const RelationStats* stats = catalog.Find(atom.predicate());
    if (stats == nullptr || stats->rows == 0) return 0.0;
    size *= static_cast<double>(stats->rows);
    for (size_t p = 0; p < atom.arity(); ++p) {
      const size_t distinct = std::max<size_t>(stats->distinct[p], 1);
      const Term t = atom.arg(p);
      if (t.is_constant()) {
        constant_distincts.push_back(distinct);
      } else {
        var_distincts[t.symbol()].push_back(distinct);
      }
    }
  }
  // Each constant selection keeps ~1/distinct of its relation.
  for (size_t d : constant_distincts) {
    size /= static_cast<double>(d);
  }
  // A variable with k occurrences induces k-1 equalities; under the
  // containment-of-values assumption each costs 1/max(distinct of the two
  // sides); the standard simplification divides by every occurrence's
  // distinct count except the smallest.
  for (auto& [var, distincts] : var_distincts) {
    if (distincts.size() < 2) continue;
    std::sort(distincts.begin(), distincts.end());
    for (size_t i = 1; i < distincts.size(); ++i) {
      size /= static_cast<double>(distincts[i]);
    }
  }
  return std::max(size, 1.0);
}

}  // namespace vbr
