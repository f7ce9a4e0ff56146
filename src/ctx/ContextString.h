//===- ctx/ContextString.h - Traditional context-string pairs ---*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traditional context-string abstraction of context transformations
/// (Section 4.1 of the paper): a pair (A, B) of truncated context strings,
/// read as "maps any method context with prefix A to the set of contexts
/// with prefix B". This is the representation used by Doop-style
/// context-sensitive analyses; the paper shows it is the explicit
/// enumeration of the input/output values of context transformations.
///
/// Composition is an equality join on the shared middle string:
/// comp^c((U,V), (V,W), (U,W)); inverse swaps the pair.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_CTX_CONTEXTSTRING_H
#define CTP_CTX_CONTEXTSTRING_H

#include "ctx/Ctxt.h"

#include <optional>

namespace ctp {
namespace ctx {

/// A context-string pair (A, B) ∈ CtxtTc_{i,j}.
struct CtxtPair {
  CtxtVec In;  ///< A — truncated context at the transformation's source.
  CtxtVec Out; ///< B — truncated context at the transformation's target.

  friend bool operator==(const CtxtPair &X, const CtxtPair &Y) {
    return X.In == Y.In && X.Out == Y.Out;
  }
  friend bool operator!=(const CtxtPair &X, const CtxtPair &Y) {
    return !(X == Y);
  }

  std::uint64_t hash() const {
    return hashCombine(In.hash(), Out.hash());
  }
};

struct CtxtPairHash {
  std::size_t operator()(const CtxtPair &P) const {
    return static_cast<std::size_t>(P.hash());
  }
};

/// True iff comp^c(A, B) succeeds: the middles agree exactly (both
/// operands are truncated to the same middle length by the rule schema,
/// so equality is the correct prefix-set test).
inline bool composable(const CtxtPair &A, const CtxtPair &B) {
  return A.Out == B.In;
}

/// comp^c: (U,V);(V,W) = (U,W), or nullopt unless composable(A, B).
inline std::optional<CtxtPair> composePairs(const CtxtPair &A,
                                            const CtxtPair &B) {
  if (!composable(A, B))
    return std::nullopt;
  return CtxtPair{A.In, B.Out};
}

/// inv^c((U,V)) = (V,U).
inline CtxtPair inversePair(const CtxtPair &P) { return {P.Out, P.In}; }

/// target^c((U,V)) = V.
inline const CtxtVec &targetPair(const CtxtPair &P) { return P.Out; }

/// record^c(M) = (prefix_h(M), M).
inline CtxtPair recordPair(const CtxtVec &M, unsigned H) {
  return {M.takePrefix(H), M};
}

/// Renders "(A -> B)" debug output.
std::string printCtxtPair(const CtxtPair &P,
                          const ElemPrinter &Printer = printElemDefault);

} // namespace ctx
} // namespace ctp

#endif // CTP_CTX_CONTEXTSTRING_H
