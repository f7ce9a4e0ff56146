//===- ctx/TransformerString.cpp - Transformer string algebra -------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "ctx/TransformerString.h"

using namespace ctp;
using namespace ctp::ctx;

std::optional<Transformer> ctx::compose(const Transformer &A,
                                        const Transformer &B) {
  // The concatenated letter string is  Ǎₑ · w₁ · Âₙ · B̌ₑ · w₂ · B̂ₙ.
  // `match` cancels A's entries against B's exits pairwise from the front
  // (both describe the context top): â followed by ǎ cancels, â followed by
  // b̌ with a ≠ b is ⊥ (the paper's infeasible path).
  if (!composable(A, B))
    return std::nullopt;
  unsigned N = A.Entries.size() < B.Exits.size() ? A.Entries.size()
                                                 : B.Exits.size();

  Transformer R;
  if (B.Exits.size() > N) {
    // B has exits left after consuming all of A's entries. They either fall
    // into A's wildcard (∗ absorbs exits: match(·∗·ǎ·) = match(·∗·)) or
    // extend A's exit sequence.
    if (A.Wild) {
      R.Exits = A.Exits;
      R.Wild = true; // w₂ after a surviving ∗ is also absorbed.
      R.Entries = B.Entries;
      return R;
    }
    R.Exits = A.Exits;
    for (unsigned I = N; I < B.Exits.size(); ++I)
      R.Exits.push_back(B.Exits[I]);
    R.Wild = B.Wild;
    R.Entries = B.Entries;
    return R;
  }

  // All of B's exits cancelled; A may have leftover entries.
  if (B.Wild) {
    // B's wildcard wipes whatever A produced below B's entries
    // (match(·â·∗·) = match(·∗·)).
    R.Exits = A.Exits;
    R.Wild = true;
    R.Entries = B.Entries;
    return R;
  }
  R.Exits = A.Exits;
  R.Wild = A.Wild;
  R.Entries = B.Entries;
  for (unsigned I = N; I < A.Entries.size(); ++I)
    R.Entries.push_back(A.Entries[I]);
  return R;
}

Transformer ctx::truncate(const Transformer &T, unsigned MaxExits,
                          unsigned MaxEntries) {
  if (T.Exits.size() <= MaxExits && T.Entries.size() <= MaxEntries)
    return T;
  Transformer R;
  R.Exits = T.Exits.takePrefix(MaxExits);
  R.Entries = T.Entries.takePrefix(MaxEntries);
  R.Wild = true;
  return R;
}

std::optional<Transformer> ctx::composeTruncated(const Transformer &A,
                                                 const Transformer &B,
                                                 unsigned MaxExits,
                                                 unsigned MaxEntries) {
  std::optional<Transformer> C = compose(A, B);
  if (!C)
    return std::nullopt;
  return truncate(*C, MaxExits, MaxEntries);
}

Transformer ctx::inverse(const Transformer &T) {
  Transformer R;
  R.Exits = T.Entries;
  R.Entries = T.Exits;
  R.Wild = T.Wild;
  return R;
}

Transformer ctx::prefixFilter(const CtxtVec &M) {
  Transformer R;
  R.Exits = M;
  R.Entries = M;
  return R;
}

namespace {

bool isPrefixOf(const CtxtVec &P, const CtxtVec &V) {
  if (P.size() > V.size())
    return false;
  for (unsigned I = 0; I < P.size(); ++I)
    if (P[I] != V[I])
      return false;
  return true;
}

} // namespace

bool ctx::subsumes(const Transformer &A, const Transformer &B) {
  if (A == B)
    return false;
  if (A.Wild)
    return isPrefixOf(A.Exits, B.Exits) && isPrefixOf(A.Entries, B.Entries);
  if (B.Wild)
    return false; // An exact map cannot contain an infinite image.
  // Exact vs exact: B must be A restricted to inputs extending A's exits
  // by some X, with the same X appended to the entries.
  if (!isPrefixOf(A.Exits, B.Exits) || !isPrefixOf(A.Entries, B.Entries))
    return false;
  CtxtVec XFromExits = B.Exits.dropPrefix(A.Exits.size());
  CtxtVec XFromEntries = B.Entries.dropPrefix(A.Entries.size());
  return XFromExits == XFromEntries;
}

std::string ctx::printTransformer(const Transformer &T,
                                  const ElemPrinter &Printer) {
  std::string Out = "<";
  for (unsigned I = 0; I < T.Exits.size(); ++I) {
    if (I != 0)
      Out += " ";
    Out += "v" + Printer(T.Exits[I]);
  }
  if (T.Wild) {
    if (!T.Exits.empty())
      Out += " ";
    Out += "*";
  }
  for (unsigned I = 0; I < T.Entries.size(); ++I) {
    if (I != 0 || T.Wild || !T.Exits.empty())
      Out += " ";
    Out += "^" + Printer(T.Entries[I]);
  }
  if (T.isIdentity())
    Out += "eps";
  Out += ">";
  return Out;
}
