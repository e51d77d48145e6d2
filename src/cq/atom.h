#ifndef VBR_CQ_ATOM_H_
#define VBR_CQ_ATOM_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "cq/term.h"

namespace vbr {

// An atom (subgoal) p(t1, ..., tk): an interned predicate symbol applied to
// terms. Atoms over base relations and over views use the same type; the
// predicate symbol distinguishes them in context.
//
// Built-in comparison predicates ("<", "<=", ">", ">=", "!=") are
// represented as ordinary atoms flagged by is_builtin(); only the engine and
// the union-rewriting extension accept them.
class Atom {
 public:
  Atom() = default;
  Atom(Symbol predicate, std::vector<Term> args);
  // Convenience: interns `predicate` in the global symbol table.
  Atom(std::string_view predicate, std::initializer_list<Term> args);
  Atom(std::string_view predicate, std::vector<Term> args);

  Symbol predicate() const { return predicate_; }
  std::string predicate_name() const;
  const std::vector<Term>& args() const { return args_; }
  std::vector<Term>& mutable_args() { return args_; }
  size_t arity() const { return args_.size(); }
  Term arg(size_t i) const;

  // True for the reserved comparison predicates.
  bool is_builtin() const;

  // Appends each variable argument (with repetition) to `out`.
  void AppendVariables(std::vector<Term>* out) const;

  // True if some argument equals `t`.
  bool Mentions(Term t) const;

  std::string ToString() const;

  friend bool operator==(const Atom& a, const Atom& b) = default;

 private:
  Symbol predicate_ = kInvalidSymbol;
  std::vector<Term> args_;
};

struct AtomHash {
  size_t operator()(const Atom& a) const;
};

// Registers the comparison predicates and returns true if `predicate` is one
// of them.
bool IsBuiltinPredicate(Symbol predicate);

// Distinct variables across `atoms` in first-occurrence order.
std::vector<Term> CollectVariables(const std::vector<Atom>& atoms);

// Distinct terms (variables and constants) across `atoms` in
// first-occurrence order.
std::vector<Term> CollectTerms(const std::vector<Atom>& atoms);

std::string AtomsToString(const std::vector<Atom>& atoms);

}  // namespace vbr

#endif  // VBR_CQ_ATOM_H_
