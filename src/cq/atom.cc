#include "cq/atom.h"

#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace vbr {

namespace {

// Lazily interned ids of the comparison predicates.
const std::unordered_set<Symbol>& BuiltinPredicateIds() {
  static const std::unordered_set<Symbol>* ids = [] {
    auto* s = new std::unordered_set<Symbol>;
    for (const char* name : {"<", "<=", ">", ">=", "!="}) {
      s->insert(SymbolTable::Global().Intern(name));
    }
    return s;
  }();
  return *ids;
}

}  // namespace

Atom::Atom(Symbol predicate, std::vector<Term> args)
    : predicate_(predicate), args_(std::move(args)) {}

Atom::Atom(std::string_view predicate, std::initializer_list<Term> args)
    : predicate_(SymbolTable::Global().Intern(predicate)), args_(args) {}

Atom::Atom(std::string_view predicate, std::vector<Term> args)
    : predicate_(SymbolTable::Global().Intern(predicate)),
      args_(std::move(args)) {}

std::string Atom::predicate_name() const {
  return SymbolTable::Global().NameOf(predicate_);
}

Term Atom::arg(size_t i) const {
  VBR_DCHECK(i < args_.size());
  return args_[i];
}

bool Atom::is_builtin() const { return IsBuiltinPredicate(predicate_); }

void Atom::AppendVariables(std::vector<Term>* out) const {
  for (Term t : args_) {
    if (t.is_variable()) out->push_back(t);
  }
}

bool Atom::Mentions(Term t) const {
  for (Term a : args_) {
    if (a == t) return true;
  }
  return false;
}

std::string Atom::ToString() const {
  // Builtins print infix ("X <= Y"), matching the only syntax the parser
  // accepts for them — ToString() must re-parse (the fuzz harness checks
  // the round trip).
  if (is_builtin() && args_.size() == 2) {
    return args_[0].ToString() + " " + predicate_name() + " " +
           args_[1].ToString();
  }
  std::string s = predicate_name();
  s += "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) s += ",";
    s += args_[i].ToString();
  }
  s += ")";
  return s;
}

size_t AtomHash::operator()(const Atom& a) const {
  size_t h = std::hash<int32_t>()(a.predicate());
  for (Term t : a.args()) {
    h = h * 1315423911u + TermHash()(t);
  }
  return h;
}

bool IsBuiltinPredicate(Symbol predicate) {
  return BuiltinPredicateIds().count(predicate) > 0;
}

std::vector<Term> CollectVariables(const std::vector<Atom>& atoms) {
  std::vector<Term> result;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      if (t.is_variable() && seen.insert(t).second) result.push_back(t);
    }
  }
  return result;
}

std::vector<Term> CollectTerms(const std::vector<Atom>& atoms) {
  std::vector<Term> result;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      if (seen.insert(t).second) result.push_back(t);
    }
  }
  return result;
}

std::string AtomsToString(const std::vector<Atom>& atoms) {
  std::string s;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) s += ", ";
    s += atoms[i].ToString();
  }
  return s;
}

}  // namespace vbr
