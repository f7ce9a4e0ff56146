//===- facts/FactDB.cpp - Fact database integrity checks ------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "facts/FactDB.h"

#include "facts/Schema.h"
#include "support/Hashing.h"

using namespace ctp;
using namespace ctp::facts;

std::size_t FactDB::numInputFacts() const {
  std::size_t N = 0;
  forEachInput([&](auto Tr) { N += Tr.in(*this).size(); });
  return N;
}

namespace {

bool inRange(Id X, std::size_t Bound) { return X < Bound; }

constexpr std::uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t FnvPrime = 0x100000001b3ULL;

/// FNV-1a absorption of one string plus a terminator byte (so adjacent
/// fields cannot run together: ("ab","c") != ("a","bc")).
std::uint64_t absorb(std::uint64_t H, const std::string &S) {
  for (char C : S) {
    H ^= static_cast<std::uint8_t>(C);
    H *= FnvPrime;
  }
  H ^= 0xff;
  H *= FnvPrime;
  return H;
}

std::uint64_t absorb(std::uint64_t H, std::uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= static_cast<std::uint8_t>(V >> (8 * I));
    H *= FnvPrime;
  }
  return H;
}

/// Accumulates per-item hashes commutatively (wrapping addition), which
/// is what makes the fingerprint independent of row order.
struct ContentSum {
  std::uint64_t Sum = 0;
  void add(std::uint64_t H) { Sum += mix64(H); }
};

} // namespace

std::uint64_t FactDB::fingerprint() const {
  ContentSum CS;

  // Name domains: a name present in the domain but referenced by no fact
  // still distinguishes two databases.
  for (const DomainDesc &D : Domains)
    for (const std::string &N : this->*D.Names)
      CS.add(absorb(absorb(FnvOffset, std::string(D.Tag)), N));

  // One hash per fact, seeded with the predicate tag, absorbing the
  // referenced entities by name (order-independence must survive id
  // renumbering, and names are the id-free identity of an entity) and
  // then the ordinal, if any.
  auto Fact = [&](const char *Tag,
                  std::initializer_list<const std::string *> Fields) {
    std::uint64_t H = absorb(FnvOffset, std::string(Tag));
    for (const std::string *F : Fields)
      H = absorb(H, *F);
    CS.add(absorb(H, std::uint64_t(0)));
  };
  for (Id E : EntryMethods)
    Fact("entry", {&MethodNames[E]});
  forEachInput([&](auto Tr) {
    using T = decltype(Tr);
    const std::string Tag = T::Name;
    for (const auto &F : T::in(*this)) {
      std::uint64_t H = absorb(FnvOffset, Tag), Ordinal = 0;
      Id Kind = 0;
      for (const auto &C : T::Cols) {
        const Id X = F.*C.Member;
        if (C.Kind == Col::Ordinal)
          Ordinal = X;
        else if (C.Kind == Col::EntityKind)
          // The attachment kind is hashed as a word of its own so an
          // invocation and a field that share a name cannot collide.
          H = absorb(H, "on_" + std::string(
                            domainOf(Col::Entity, Kind = X).Tag));
        else
          H = absorb(H, (this->*domainOf(C.Kind, Kind).Names)[X]);
      }
      CS.add(absorb(H, Ordinal));
    }
  });

  // Parent/classOf attributes, keyed by name on both sides.
  for (std::size_t I = 0; I < VarParent.size(); ++I)
    Fact("var_parent", {&VarNames[I], &MethodNames[VarParent[I]]});
  for (std::size_t I = 0; I < HeapParent.size(); ++I)
    Fact("heap_parent", {&HeapNames[I], &MethodNames[HeapParent[I]]});
  for (std::size_t I = 0; I < InvokeParent.size(); ++I)
    Fact("invoke_parent", {&InvokeNames[I], &MethodNames[InvokeParent[I]]});
  for (std::size_t I = 0; I < MethodClass.size(); ++I)
    Fact("method_class", {&MethodNames[I], &TypeNames[MethodClass[I]]});

  // Mix the total in so an empty database does not fingerprint as 0.
  return mix64(CS.Sum ^ numInputFacts());
}

std::uint64_t FactDB::layoutHash() const {
  std::uint64_t H = FnvOffset;
  auto Ids = [&H](const std::vector<Id> &V) {
    H = absorb(H, static_cast<std::uint64_t>(V.size()));
    for (Id X : V)
      H = absorb(H, static_cast<std::uint64_t>(X));
  };
  // Stored order everywhere: two databases share a layout hash iff the
  // name tables assign identical ids and every fact vector lists its
  // rows in the identical order.
  for (const DomainDesc &D : Domains) {
    H = absorb(H, static_cast<std::uint64_t>((this->*D.Names).size()));
    for (const std::string &N : this->*D.Names)
      H = absorb(H, N);
  }
  Ids(EntryMethods);
  // Vector lengths first, so rows cannot shift between adjacent
  // predicates without changing the hash.
  forEachInput([&](auto Tr) {
    H = absorb(H, static_cast<std::uint64_t>(Tr.in(*this).size()));
  });
  forEachInput([&](auto Tr) {
    for (const auto &F : Tr.in(*this))
      for (const auto &C : Tr.Cols)
        H = absorb(H, static_cast<std::uint64_t>(F.*C.Member));
  });
  Ids(VarParent);
  Ids(HeapParent);
  Ids(InvokeParent);
  Ids(MethodClass);
  return mix64(H);
}

std::string FactDB::validate() const {
  const std::size_t NV = numVars(), NH = numHeaps(), NM = numMethods(),
                    NI = numInvokes(), NT = numTypes();
  if (VarParent.size() != NV)
    return "VarParent table size mismatch";
  if (HeapParent.size() != NH)
    return "HeapParent table size mismatch";
  if (InvokeParent.size() != NI)
    return "InvokeParent table size mismatch";
  if (MethodClass.size() != NM)
    return "MethodClass table size mismatch";
  if (EntryMethods.empty())
    return "no entry method";
  for (Id E : EntryMethods)
    if (!inRange(E, NM))
      return "entry method out of range";
  for (Id P : VarParent)
    if (!inRange(P, NM))
      return "variable parent out of range";
  for (Id P : HeapParent)
    if (!inRange(P, NM))
      return "heap parent out of range";
  for (Id P : InvokeParent)
    if (!inRange(P, NM))
      return "invocation parent out of range";
  for (Id C : MethodClass)
    if (!inRange(C, NT))
      return "method class out of range";

  // The first predicate, in table order, with a row naming an id past
  // its domain (or a taint attachment kind other than 0/1).
  std::string Err;
  forEachInput([&](auto Tr) {
    for (const auto &F : Tr.in(*this)) {
      Id Kind = 0;
      for (const auto &C : Tr.Cols) {
        const Id X = F.*C.Member;
        const bool Bad =
            C.Kind == Col::EntityKind ? (Kind = X) > 1
            : C.Kind == Col::Ordinal
                ? false
                : !inRange(X, (this->*domainOf(C.Kind, Kind).Names).size());
        if (Bad && Err.empty())
          Err = std::string(Tr.Name) + " fact out of range";
      }
    }
  });
  return Err;
}
