//===- ctx/TransformerString.h - The paper's novel abstraction --*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transformer strings (Section 4.2 of the paper): canonical
/// representations of context transformations as a sequence of exit
/// letters, an optional wildcard, and a sequence of entry letters —
/// "Ǎ·w·B̂" with w in {∗, ε}. A transformer (Exits=A, Wild=w, Entries=B)
/// applied to a method context M
///
///   1. requires A to be a prefix of M and drops it (else the result is the
///      error context / the empty set),
///   2. if w, forgets the remainder entirely (any context is possible), and
///   3. pushes the elements of B on top.
///
/// Composition implements the paper's `match` cancellation: the entries of
/// the first operand cancel one-for-one against the exits of the second;
/// any mismatch yields ⊥; a wildcard absorbs whatever crosses it. The
/// k-limiting `trunc` keeps the first i exits and j entries and inserts a
/// wildcard when anything was cut (Lemma 4.2: truncation is conservative).
///
//===----------------------------------------------------------------------===//

#ifndef CTP_CTX_TRANSFORMERSTRING_H
#define CTP_CTX_TRANSFORMERSTRING_H

#include "ctx/Ctxt.h"

#include <optional>

namespace ctp {
namespace ctx {

/// A canonical transformer string. ⊥ is not representable; operations that
/// can produce ⊥ return std::nullopt instead, matching the paper's
/// function-style predicate comp which "is false for all C if A;B ≡ ⊥".
struct Transformer {
  CtxtVec Exits;   ///< Ǎ — elements popped off the front, in pop order.
  CtxtVec Entries; ///< B̂ — elements pushed on top; Entries[0] ends up
                   ///< top-most in the output context.
  bool Wild = false;

  /// The identity transformation ε.
  static Transformer identity() { return Transformer(); }

  /// An entry transformation \c ê: pushes one element.
  static Transformer entry(CtxtElem E) {
    Transformer T;
    T.Entries.push_back(E);
    return T;
  }

  /// An exit transformation \c ě: pops one element.
  static Transformer exit(CtxtElem E) {
    Transformer T;
    T.Exits.push_back(E);
    return T;
  }

  bool isIdentity() const {
    return Exits.empty() && Entries.empty() && !Wild;
  }

  friend bool operator==(const Transformer &A, const Transformer &B) {
    return A.Wild == B.Wild && A.Exits == B.Exits && A.Entries == B.Entries;
  }
  friend bool operator!=(const Transformer &A, const Transformer &B) {
    return !(A == B);
  }

  std::uint64_t hash() const {
    return hashCombine(hashCombine(Exits.hash(), Entries.hash()),
                       Wild ? 1 : 2);
  }
};

struct TransformerHash {
  std::size_t operator()(const Transformer &T) const {
    return static_cast<std::size_t>(T.hash());
  }
};

/// True iff A;B is not ⊥: every entry of \p A that meets an exit of \p B
/// (pairwise from the context top) equals it. This is compose's only
/// failure condition — truncation never fails — so callers can reject ⊥
/// without building the composition.
inline bool composable(const Transformer &A, const Transformer &B) {
  unsigned N = A.Entries.size() < B.Exits.size() ? A.Entries.size()
                                                 : B.Exits.size();
  for (unsigned I = 0; I < N; ++I)
    if (A.Entries[I] != B.Exits[I])
      return false;
  return true;
}

/// Composes two transformers: "first \p A, then \p B" (the paper's A;B).
/// Performs the full `match` cancellation without truncation.
/// \returns std::nullopt when the composition is ⊥ (an entry of A meets a
/// different exit of B).
std::optional<Transformer> compose(const Transformer &A,
                                   const Transformer &B);

/// trunc_{i,j}: k-limits \p T to at most \p MaxExits exits and
/// \p MaxEntries entries, inserting a wildcard if anything was dropped.
Transformer truncate(const Transformer &T, unsigned MaxExits,
                     unsigned MaxEntries);

/// Composition followed by truncation into CtxtT_{i,k} — the paper's
/// comp^t(X, Y, trunc_{i,k}(match(X·Y))).
std::optional<Transformer> composeTruncated(const Transformer &A,
                                            const Transformer &B,
                                            unsigned MaxExits,
                                            unsigned MaxEntries);

/// Semigroup inverse: inv^t(Ǎ·w·B̂) = B̌·w·Â.
Transformer inverse(const Transformer &T);

/// Builds the transformation M̌·M̂ used by merge_s under object and type
/// sensitivity: the transformer that maps any context with prefix \p M to
/// itself and everything else to the error context (the "N·N̂ trick" of
/// Section 3).
Transformer prefixFilter(const CtxtVec &M);

/// target^t: the known prefix of the callee's method context, i.e. the
/// entries of a call edge's transformer.
inline const CtxtVec &targetPrefix(const Transformer &T) {
  return T.Entries;
}

/// True iff \p A strictly subsumes \p B: A ≠ B and A's image contains B's
/// image on every input (Section 8's subsuming facts: deriving B when A
/// is already known is redundant work). Exact for canonical transformer
/// strings:
///   * wild A:  A = Ǎ·∗·N̂ subsumes any B whose exits extend A's and whose
///     entries extend A's (e.g. ∗ subsumes everything; M̌1·∗ and ∗·M̂2
///     both subsume M̌1·∗·M̂2);
///   * exact A: A = Ǎ·N̂ subsumes exactly the prefix-restrictions
///     Ǎ·X̌·X̂·N̂... i.e. B with Exits = A.Exits·X and Entries =
///     A.Entries·X (e.g. ε subsumes č·ĉ — Figure 7).
bool subsumes(const Transformer &A, const Transformer &B);

/// Renders "⟨ě1 ě2 · ∗ · ê1 ê2⟩" style debug output.
std::string printTransformer(const Transformer &T,
                             const ElemPrinter &Printer = printElemDefault);

} // namespace ctx
} // namespace ctp

#endif // CTP_CTX_TRANSFORMERSTRING_H
