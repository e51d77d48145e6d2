#ifndef VBR_ENGINE_DATABASE_H_
#define VBR_ENGINE_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cq/atom.h"
#include "engine/relation.h"

namespace vbr {

// A database instance: a relation per predicate symbol.
//
// Copies share their relations: copying a Database copies one pointer per
// predicate, and a relation is cloned only when a copy that shares it asks
// for it mutably (GetOrCreate, FindMutable, AddFact, AddRow). A planner
// delta therefore costs a map of pointers, not every row of the catalog.
// As with any value type, one Database object must not be mutated while
// another thread reads or copies it; distinct copies are independent.
class Database {
 public:
  Database() = default;

  // The relation for `predicate`, creating an empty one with `arity` if
  // absent. CHECK-fails if it exists with a different arity.
  Relation& GetOrCreate(Symbol predicate, size_t arity);

  // The relation for `predicate`, or nullptr if absent. The pointer stays
  // valid until the relation is removed or replaced in this database, or
  // is cloned by a mutable access.
  const Relation* Find(Symbol predicate) const;
  Relation* FindMutable(Symbol predicate);

  // Inserts a ground fact. All arguments of `fact` must be constants; they
  // are encoded with EncodeConstant.
  void AddFact(const Atom& fact);

  // Inserts a row of raw values under `predicate` (interned globally).
  void AddRow(std::string_view predicate, std::initializer_list<Value> row);
  void AddRow(Symbol predicate, std::span<const Value> row);

  size_t NumRelations() const { return relations_.size(); }

  // Copies every relation of `other` into this database, overwriting any
  // relation stored under the same predicate (AddViews: the added views'
  // instances join the snapshot's copy of the existing ones).
  void MergeFrom(const Database& other);

  // Drops the relation stored under `predicate`; returns whether one
  // existed.
  bool Remove(Symbol predicate);

  // Total number of rows across relations.
  size_t TotalRows() const;

  // Predicate symbols, sorted by name, for deterministic printing.
  std::vector<Symbol> Predicates() const;

  std::string ToString() const;

 private:
  // The relation owned by this database alone: clones `rel` if another
  // copy still shares it.
  static Relation& Unshare(std::shared_ptr<Relation>& rel);

  std::unordered_map<Symbol, std::shared_ptr<Relation>> relations_;
};

}  // namespace vbr

#endif  // VBR_ENGINE_DATABASE_H_
