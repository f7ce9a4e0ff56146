//===- analysis/RuleTable.cpp - Figure 3 rule descriptors -----------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleTable.h"

using namespace ctp;
using namespace ctp::analysis;

namespace {

// Canonical firing order: axioms first, then the per-statement rules in
// the order the solver's processing loop considers them.
const RuleDesc Table[] = {
    {ProvRule::Entry, "ENTRY", ProvRel::Reach, RuleArity::Axiom, "entry",
     AuxKind::None, nullptr},
    {ProvRule::Assign, "ASSIGN", ProvRel::Pts, RuleArity::One, "assign",
     AuxKind::Var, "from"},
    {ProvRule::Cast, "CAST", ProvRel::Pts, RuleArity::One, "cast",
     AuxKind::Var, "from"},
    {ProvRule::Load, "LOAD", ProvRel::Hload, RuleArity::One, "load",
     AuxKind::Var, "base"},
    {ProvRule::Store, "STORE", ProvRel::Hpts, RuleArity::Two, "store",
     AuxKind::Var, "from"},
    {ProvRule::Param, "PARAM", ProvRel::Pts, RuleArity::Two, "param",
     AuxKind::Invoke, "at"},
    {ProvRule::Ret, "RET", ProvRel::Pts, RuleArity::Two, "return",
     AuxKind::Invoke, "at"},
    {ProvRule::Throw, "THROW", ProvRel::Pts, RuleArity::Two, "throw",
     AuxKind::Invoke, "at"},
    {ProvRule::GStore, "GSTORE", ProvRel::Gpts, RuleArity::One,
     "global-store", AuxKind::Var, "from"},
    {ProvRule::VirtCall, "VIRT", ProvRel::Call, RuleArity::One,
     "virtual-dispatch", AuxKind::Invoke, "at"},
    {ProvRule::VirtThis, "VIRT-THIS", ProvRel::Pts, RuleArity::Two,
     "this-binding", AuxKind::Invoke, "at"},
    {ProvRule::Ind, "IND", ProvRel::Pts, RuleArity::Two, "indirect-flow",
     AuxKind::None, nullptr},
    {ProvRule::Reach, "REACH", ProvRel::Reach, RuleArity::One,
     "reachability", AuxKind::Invoke, "at"},
    {ProvRule::GLoad, "GLOAD", ProvRel::Pts, RuleArity::Two, "global-load",
     AuxKind::Global, "global"},
    {ProvRule::New, "NEW", ProvRel::Pts, RuleArity::One, "allocation",
     AuxKind::Heap, "site"},
    {ProvRule::Static, "STATIC", ProvRel::Call, RuleArity::One,
     "static-call", AuxKind::Invoke, "at"},
    {ProvRule::Shortcut, "SHORTCUT", ProvRel::Pts, RuleArity::Two,
     "shortcut", AuxKind::Invoke, "at"},
};

} // namespace

const RuleDesc *analysis::ruleTable(std::size_t &Count) {
  Count = sizeof(Table) / sizeof(Table[0]);
  return Table;
}

const RuleDesc *analysis::ruleDesc(ProvRule R) {
  for (const RuleDesc &D : Table)
    if (D.Rule == R)
      return &D;
  return nullptr;
}

const char *analysis::ruleName(ProvRule R) {
  const RuleDesc *D = ruleDesc(R);
  return D ? D->Name : "?";
}

const char *analysis::relName(ProvRel R) {
  const char *Name = "?";
  forEachRelation([&](auto Tr) {
    if (Tr.Rel == R)
      Name = Tr.Name;
  });
  return Name;
}
