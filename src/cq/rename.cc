#include "cq/rename.h"

#include <algorithm>
#include <vector>

#include "cq/term.h"

namespace vbr {

ConjunctiveQuery RenameVariablesApart(const ConjunctiveQuery& q,
                                      std::string_view prefix,
                                      Substitution* out_mapping) {
  // Head variables first so safe queries stay readable, then body.
  std::vector<Term> vars = q.DistinguishedVariables();
  for (Term t : q.Variables()) {
    if (std::find(vars.begin(), vars.end(), t) == vars.end()) {
      vars.push_back(t);
    }
  }
  Substitution subst;
  if (!vars.empty()) {
    // One block, so the renaming records one fresh run, not one per
    // variable.
    const Symbol first = SymbolTable::Global().FreshBlock(prefix, vars.size());
    for (size_t i = 0; i < vars.size(); ++i) {
      subst.Bind(vars[i], Term::Variable(first + static_cast<Symbol>(i)));
    }
  }
  if (out_mapping != nullptr) *out_mapping = subst;
  return subst.Apply(q);
}

}  // namespace vbr
