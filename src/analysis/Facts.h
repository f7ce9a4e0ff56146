//===- analysis/Facts.h - Derived fact representations ----------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat tuple types for the derived relations of Figure 3 (pts, hpts,
/// hload, call, reach, gpts). Context transformations appear as interned
/// ids into a ctx::Domain; reach contexts as interned CtxtVec ids.
///
/// Each relation is described once, by FactTraits<Fact>: its tag, name,
/// arity, word encoding and per-column id limits. Every engine path
/// (solver insert/restore/replay, snapshot encoding, the datalog
/// front-end's restore and extraction) is written against the traits and
/// iterates the relations with forEachRelation.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_FACTS_H
#define CTP_ANALYSIS_FACTS_H

#include "ctx/Domain.h"
#include "facts/FactDB.h"
#include "support/Hashing.h"

#include <array>
#include <cstdint>

namespace ctp {
namespace analysis {

/// The derived relations, in declaration order: the order of the
/// relation members of Results and SolverSnapshot, of the snapshot
/// sections, and of forEachRelation. Provenance nodes intern (relation,
/// key) because FactKeys are only unique within one relation.
enum class ProvRel : std::uint8_t { Pts, Hpts, Hload, Call, Reach, Gpts };

/// pts(Var, Heap, T): Var points to objects allocated at Heap under the
/// context transformation T (alloc context -> pointer context).
struct PtsFact {
  std::uint32_t Var;
  std::uint32_t Heap;
  ctx::TransformId T;
};

/// hpts(Base, Field, Heap, T): field Field of objects allocated at Base
/// points to objects allocated at Heap; T maps the pointee's heap context
/// to the base object's heap context (domain CtxtT_{h,h}).
struct HptsFact {
  std::uint32_t Base;
  std::uint32_t Field;
  std::uint32_t Heap;
  ctx::TransformId T;
};

/// hload(Base, Field, Var, T): Var is loaded from field Field of objects
/// allocated at Base; T maps the base's heap context to Var's method
/// context (domain CtxtT_{h,m}).
struct HloadFact {
  std::uint32_t Base;
  std::uint32_t Field;
  std::uint32_t Var;
  ctx::TransformId T;
};

/// call(Invoke, Method, T): call-graph edge; T maps caller context to
/// callee context (domain CtxtT_{m,m}).
struct CallFact {
  std::uint32_t Invoke;
  std::uint32_t Method;
  ctx::TransformId T;
};

/// reach(Method, Ctxt): Method is reachable under some method context with
/// the given (interned) prefix.
struct ReachFact {
  std::uint32_t Method;
  std::uint32_t CtxtId;
};

/// gpts(Global, Heap, T): static field Global points to objects allocated
/// at Heap; T qualifies the pointee's heap context only (CtxtT_{h,0} —
/// flow through a global severs the method-context link).
struct GptsFact {
  std::uint32_t Global;
  std::uint32_t Heap;
  ctx::TransformId T;
};

/// Uniform 4-word key for hash-set membership of any derived fact.
using FactKey = std::array<std::uint32_t, 4>;

struct FactKeyHash {
  std::size_t operator()(const FactKey &K) const {
    return static_cast<std::size_t>(hashRange(K.begin(), K.end()));
  }
};

inline FactKey keyOf(const PtsFact &F) { return {F.Var, F.Heap, F.T, 0}; }
inline FactKey keyOf(const HptsFact &F) {
  return {F.Base, F.Field, F.Heap, F.T};
}
inline FactKey keyOf(const HloadFact &F) {
  return {F.Base, F.Field, F.Var, F.T};
}
inline FactKey keyOf(const CallFact &F) {
  return {F.Invoke, F.Method, F.T, 0};
}
inline FactKey keyOf(const ReachFact &F) {
  return {F.Method, F.CtxtId, 0, 0};
}
inline FactKey keyOf(const GptsFact &F) {
  return {F.Global, F.Heap, F.T, 1};
}

/// Exclusive upper bound of every id kind a derived-fact column holds:
/// the entity counts of a FactDB plus one solve's interned
/// transformation and reach-context counts.
struct IdLimits {
  std::uint32_t Vars, Heaps, Fields, Invokes, Methods, Globals;
  std::uint32_t Transforms, ReachCtxts;
};

inline IdLimits idLimits(const facts::FactDB &DB, std::size_t NumTransforms,
                         std::size_t NumReachCtxts) {
  auto U = [](std::size_t N) { return static_cast<std::uint32_t>(N); };
  return {U(DB.numVars()),    U(DB.numHeaps()),   U(DB.numFields()),
          U(DB.numInvokes()), U(DB.numMethods()), U(DB.numGlobals()),
          U(NumTransforms),   U(NumReachCtxts)};
}

/// Per-relation traits. encode/decode map a fact to and from its Arity
/// u32 words (field order); limits gives each word's IdLimits bound;
/// in(X) selects the relation's member of any record that names its six
/// relations Pts..Gpts (Results, SolverSnapshot, the solver's state).
template <class F> struct FactTraits;

template <> struct FactTraits<PtsFact> {
  using Fact = PtsFact;
  static constexpr ProvRel Rel = ProvRel::Pts;
  static constexpr const char *Name = "pts";
  static constexpr unsigned Arity = 3;
  using Words = std::array<std::uint32_t, Arity>;
  static Words encode(const Fact &F) { return {F.Var, F.Heap, F.T}; }
  static Fact decode(const std::uint32_t *W) { return {W[0], W[1], W[2]}; }
  static Words limits(const IdLimits &L) {
    return {L.Vars, L.Heaps, L.Transforms};
  }
  template <class R> static auto &in(R &X) { return X.Pts; }
};

template <> struct FactTraits<HptsFact> {
  using Fact = HptsFact;
  static constexpr ProvRel Rel = ProvRel::Hpts;
  static constexpr const char *Name = "hpts";
  static constexpr unsigned Arity = 4;
  using Words = std::array<std::uint32_t, Arity>;
  static Words encode(const Fact &F) { return {F.Base, F.Field, F.Heap, F.T}; }
  static Fact decode(const std::uint32_t *W) {
    return {W[0], W[1], W[2], W[3]};
  }
  static Words limits(const IdLimits &L) {
    return {L.Heaps, L.Fields, L.Heaps, L.Transforms};
  }
  template <class R> static auto &in(R &X) { return X.Hpts; }
};

template <> struct FactTraits<HloadFact> {
  using Fact = HloadFact;
  static constexpr ProvRel Rel = ProvRel::Hload;
  static constexpr const char *Name = "hload";
  static constexpr unsigned Arity = 4;
  using Words = std::array<std::uint32_t, Arity>;
  static Words encode(const Fact &F) { return {F.Base, F.Field, F.Var, F.T}; }
  static Fact decode(const std::uint32_t *W) {
    return {W[0], W[1], W[2], W[3]};
  }
  static Words limits(const IdLimits &L) {
    return {L.Heaps, L.Fields, L.Vars, L.Transforms};
  }
  template <class R> static auto &in(R &X) { return X.Hload; }
};

template <> struct FactTraits<CallFact> {
  using Fact = CallFact;
  static constexpr ProvRel Rel = ProvRel::Call;
  static constexpr const char *Name = "call";
  static constexpr unsigned Arity = 3;
  using Words = std::array<std::uint32_t, Arity>;
  static Words encode(const Fact &F) { return {F.Invoke, F.Method, F.T}; }
  static Fact decode(const std::uint32_t *W) { return {W[0], W[1], W[2]}; }
  static Words limits(const IdLimits &L) {
    return {L.Invokes, L.Methods, L.Transforms};
  }
  template <class R> static auto &in(R &X) { return X.Call; }
};

template <> struct FactTraits<ReachFact> {
  using Fact = ReachFact;
  static constexpr ProvRel Rel = ProvRel::Reach;
  static constexpr const char *Name = "reach";
  static constexpr unsigned Arity = 2;
  using Words = std::array<std::uint32_t, Arity>;
  static Words encode(const Fact &F) { return {F.Method, F.CtxtId}; }
  static Fact decode(const std::uint32_t *W) { return {W[0], W[1]}; }
  static Words limits(const IdLimits &L) { return {L.Methods, L.ReachCtxts}; }
  template <class R> static auto &in(R &X) { return X.Reach; }
};

template <> struct FactTraits<GptsFact> {
  using Fact = GptsFact;
  static constexpr ProvRel Rel = ProvRel::Gpts;
  static constexpr const char *Name = "gpts";
  static constexpr unsigned Arity = 3;
  using Words = std::array<std::uint32_t, Arity>;
  static Words encode(const Fact &F) { return {F.Global, F.Heap, F.T}; }
  static Fact decode(const std::uint32_t *W) { return {W[0], W[1], W[2]}; }
  static Words limits(const IdLimits &L) {
    return {L.Globals, L.Heaps, L.Transforms};
  }
  template <class R> static auto &in(R &X) { return X.Gpts; }
};

/// Calls \p Fn with a FactTraits<Fact>() value for each derived relation,
/// in declaration (ProvRel) order.
template <class FnT> void forEachRelation(FnT &&Fn) {
  Fn(FactTraits<PtsFact>());
  Fn(FactTraits<HptsFact>());
  Fn(FactTraits<HloadFact>());
  Fn(FactTraits<CallFact>());
  Fn(FactTraits<ReachFact>());
  Fn(FactTraits<GptsFact>());
}

/// Does every word of the encoded \p Fact at \p W lie below its column's
/// limit?
template <class Fact>
bool inRange(const std::uint32_t *W, const IdLimits &L) {
  const auto Lim = FactTraits<Fact>::limits(L);
  for (unsigned C = 0; C < FactTraits<Fact>::Arity; ++C)
    if (W[C] >= Lim[C])
      return false;
  return true;
}

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_FACTS_H
