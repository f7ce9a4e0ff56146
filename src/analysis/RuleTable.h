//===- analysis/RuleTable.h - Figure 3 rule descriptors ---------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A declarative table of the deduction rules the solvers implement: one
/// descriptor per ProvRule, naming the rule and the derived relation it
/// concludes into. The verifier (src/verify) iterates this table to drive
/// rule re-application and to render rule names in counterexamples and
/// support-certificate diagnostics; exposing it here keeps the rule
/// vocabulary in src/analysis, next to the solver that defines it, and
/// engine-independent (both back-ends implement exactly these rules).
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_RULETABLE_H
#define CTP_ANALYSIS_RULETABLE_H

#include "analysis/Provenance.h"

#include <cstddef>

namespace ctp {
namespace analysis {

/// How many derived-relation premises a rule joins (its input-predicate
/// premises are not counted — they are enumerable from the FactDB).
enum class RuleArity : std::uint8_t { Axiom, One, Two };

/// The entity a provenance edge's aux word names (ProvenanceGraph::Edge).
enum class AuxKind : std::uint8_t { None, Var, Invoke, Global, Heap };

/// One deduction rule.
struct RuleDesc {
  ProvRule Rule;
  /// Upper-case Figure 3 name ("ASSIGN", "VIRT", ...), stable across
  /// engines; used in diagnostics and counterexample rendering.
  const char *Name;
  /// The relation the rule concludes into.
  ProvRel Conclusion;
  RuleArity Arity;
  /// Lower-case phrase for rendered provenance chains ("assign",
  /// "virtual-dispatch", ...).
  const char *Verb;
  /// What the aux word names, and the word introducing it in a rendered
  /// chain ("from", "at", ...; null when Aux is AuxKind::None).
  AuxKind Aux;
  const char *AuxLabel;
};

/// The full rule table, in the solver's canonical firing order. Iterating
/// it visits every rule exactly once.
const RuleDesc *ruleTable(std::size_t &Count);

/// The descriptor of \p R, or null for an out-of-range value.
const RuleDesc *ruleDesc(ProvRule R);

/// Display name of \p R ("ASSIGN"), or "?" for an out-of-range value.
const char *ruleName(ProvRule R);

/// Display name of a derived relation ("pts", "hpts", ...).
const char *relName(ProvRel R);

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_RULETABLE_H
