//===- facts/Schema.h - The input predicates, described once ----*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table of the input predicates of a FactDB. InputTraits<Fact>
/// describes each predicate once:
///   - Name: the fact-delta predicate (serve/Delta.h), the fingerprint
///     tag, the Datalog relation name and the validate() message;
///   - File: its facts-directory file (facts/TsvIO.h);
///   - Cols: each column's kind and Fact member;
///   - in(DB): its FactDB member;
///   - Optional: whether a facts directory may lack the file;
///   - Role: how an edit of it reaches the incremental solver.
/// forEachInput walks the table in FactDB declaration order. Row counts,
/// both hashes, validation, TSV write/read, the delta language and the
/// Datalog EDB load are each one loop over it. The entry points and the
/// parent/classOf tables are not predicates of this table: every path
/// names them explicitly.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_FACTS_SCHEMA_H
#define CTP_FACTS_SCHEMA_H

#include "facts/FactDB.h"
#include "support/Parse.h"

namespace ctp {
namespace facts {

/// What one input column holds: an id of an entity domain (Var..Global,
/// in Domains order), an ordinal, or one half of a taint attachment.
enum class Col : std::uint8_t {
  Var,
  Heap,
  Method,
  Invoke,
  Field,
  Type,
  Sig,
  Global,
  Ordinal,    ///< a 0-based argument position, not an id
  EntityKind, ///< 0: the next column is an invocation, 1: a field
  Entity,     ///< an invocation or a field, per the preceding EntityKind
};

/// An entity domain: its tag (fingerprint tag, "Domain.<tag>" file, the
/// `add entity <tag>` kind and the EntityKind word), its noun in
/// diagnostics, and its name table.
struct DomainDesc {
  const char *Tag;
  const char *Noun;
  std::vector<std::string> FactDB::*Names;
};

inline constexpr DomainDesc Domains[] = {
    {"var", "variable", &FactDB::VarNames},
    {"heap", "heap site", &FactDB::HeapNames},
    {"method", "method", &FactDB::MethodNames},
    {"invoke", "invocation", &FactDB::InvokeNames},
    {"field", "field", &FactDB::FieldNames},
    {"type", "type", &FactDB::TypeNames},
    {"sig", "signature", &FactDB::SigNames},
    {"global", "global", &FactDB::GlobalNames},
};

/// The domain an id column draws from; \p Kind is the row's EntityKind
/// word, which picks the domain of an Entity column.
inline const DomainDesc &domainOf(Col C, Id Kind) {
  if (C == Col::Entity)
    C = Kind != 0 ? Col::Field : Col::Invoke;
  return Domains[static_cast<unsigned>(C)];
}

/// How an edit of a predicate reaches the incremental solver
/// (analysis/Incremental.h).
enum class DeltaRole : std::uint8_t {
  Narrow, ///< recorded row by row in InputDelta's Add/Rm lists
  Wide,   ///< a side condition: sets InputDelta::WideAdd/WideRemove
  Client, ///< a client annotation: sets InputDelta::ClientFactsChanged
};

/// One column of a predicate: what it holds, and the Fact member holding it.
template <class F> struct Column {
  Col Kind;
  Id F::*Member;
};

/// The part of InputTraits<F> shared by every specialization.
template <class F, DeltaRole R, bool Opt = false> struct InputDesc {
  using Fact = F;
  using Column = facts::Column<F>;
  static constexpr DeltaRole Role = R;
  static constexpr bool Optional = Opt;
};

template <class F> struct InputTraits;

template <>
struct InputTraits<ActualFact> : InputDesc<ActualFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "actual", *File = "Actual.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::Var},
                                    {Col::Invoke, &Fact::Invoke},
                                    {Col::Ordinal, &Fact::Ordinal}};
  template <class DB> static auto &in(DB &X) { return X.Actuals; }
};

template <>
struct InputTraits<AssignFact> : InputDesc<AssignFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "assign", *File = "Assign.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::From},
                                    {Col::Var, &Fact::To}};
  template <class DB> static auto &in(DB &X) { return X.Assigns; }
};

template <>
struct InputTraits<AssignNewFact>
    : InputDesc<AssignNewFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "assign_new", *File = "AssignNew.facts";
  static constexpr Column Cols[] = {{Col::Heap, &Fact::Heap},
                                    {Col::Var, &Fact::To},
                                    {Col::Method, &Fact::InMethod}};
  template <class DB> static auto &in(DB &X) { return X.AssignNews; }
};

template <>
struct InputTraits<AssignReturnFact>
    : InputDesc<AssignReturnFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "assign_return",
                              *File = "AssignReturn.facts";
  static constexpr Column Cols[] = {{Col::Invoke, &Fact::Invoke},
                                    {Col::Var, &Fact::To}};
  template <class DB> static auto &in(DB &X) { return X.AssignReturns; }
};

template <>
struct InputTraits<FormalFact> : InputDesc<FormalFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "formal", *File = "Formal.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::Var},
                                    {Col::Method, &Fact::Method},
                                    {Col::Ordinal, &Fact::Ordinal}};
  template <class DB> static auto &in(DB &X) { return X.Formals; }
};

template <>
struct InputTraits<HeapTypeFact> : InputDesc<HeapTypeFact, DeltaRole::Wide> {
  static constexpr const char *Name = "heap_type", *File = "HeapType.facts";
  static constexpr Column Cols[] = {{Col::Heap, &Fact::Heap},
                                    {Col::Type, &Fact::Type}};
  template <class DB> static auto &in(DB &X) { return X.HeapTypes; }
};

template <>
struct InputTraits<ImplementsFact>
    : InputDesc<ImplementsFact, DeltaRole::Wide> {
  static constexpr const char *Name = "implements",
                              *File = "Implements.facts";
  static constexpr Column Cols[] = {{Col::Method, &Fact::Method},
                                    {Col::Type, &Fact::Type},
                                    {Col::Sig, &Fact::Sig}};
  template <class DB> static auto &in(DB &X) { return X.Implements; }
};

template <>
struct InputTraits<LoadFact> : InputDesc<LoadFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "load", *File = "Load.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::Base},
                                    {Col::Field, &Fact::Field},
                                    {Col::Var, &Fact::To}};
  template <class DB> static auto &in(DB &X) { return X.Loads; }
};

template <>
struct InputTraits<ReturnFact> : InputDesc<ReturnFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "return", *File = "Return.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::Var},
                                    {Col::Method, &Fact::Method}};
  template <class DB> static auto &in(DB &X) { return X.Returns; }
};

template <>
struct InputTraits<StaticInvokeFact>
    : InputDesc<StaticInvokeFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "static_invoke",
                              *File = "StaticInvoke.facts";
  static constexpr Column Cols[] = {{Col::Invoke, &Fact::Invoke},
                                    {Col::Method, &Fact::Target},
                                    {Col::Method, &Fact::InMethod}};
  template <class DB> static auto &in(DB &X) { return X.StaticInvokes; }
};

template <>
struct InputTraits<StoreFact> : InputDesc<StoreFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "store", *File = "Store.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::From},
                                    {Col::Field, &Fact::Field},
                                    {Col::Var, &Fact::Base}};
  template <class DB> static auto &in(DB &X) { return X.Stores; }
};

template <>
struct InputTraits<ThisVarFact> : InputDesc<ThisVarFact, DeltaRole::Wide> {
  static constexpr const char *Name = "this_var", *File = "ThisVar.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::Var},
                                    {Col::Method, &Fact::Method}};
  template <class DB> static auto &in(DB &X) { return X.ThisVars; }
};

template <>
struct InputTraits<VirtualInvokeFact>
    : InputDesc<VirtualInvokeFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "virtual_invoke",
                              *File = "VirtualInvoke.facts";
  static constexpr Column Cols[] = {{Col::Invoke, &Fact::Invoke},
                                    {Col::Var, &Fact::Receiver},
                                    {Col::Sig, &Fact::Sig}};
  template <class DB> static auto &in(DB &X) { return X.VirtualInvokes; }
};

template <>
struct InputTraits<GlobalStoreFact>
    : InputDesc<GlobalStoreFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "global_store",
                              *File = "GlobalStore.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::From},
                                    {Col::Global, &Fact::Global}};
  template <class DB> static auto &in(DB &X) { return X.GlobalStores; }
};

template <>
struct InputTraits<GlobalLoadFact>
    : InputDesc<GlobalLoadFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "global_load",
                              *File = "GlobalLoad.facts";
  static constexpr Column Cols[] = {{Col::Global, &Fact::Global},
                                    {Col::Var, &Fact::To},
                                    {Col::Method, &Fact::InMethod}};
  template <class DB> static auto &in(DB &X) { return X.GlobalLoads; }
};

template <>
struct InputTraits<ThrowFact> : InputDesc<ThrowFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "throw", *File = "Throw.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::Var},
                                    {Col::Method, &Fact::Method}};
  template <class DB> static auto &in(DB &X) { return X.Throws; }
};

template <>
struct InputTraits<CatchFact> : InputDesc<CatchFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "catch", *File = "Catch.facts";
  static constexpr Column Cols[] = {{Col::Invoke, &Fact::Invoke},
                                    {Col::Var, &Fact::To}};
  template <class DB> static auto &in(DB &X) { return X.Catches; }
};

template <>
struct InputTraits<CastFact> : InputDesc<CastFact, DeltaRole::Narrow> {
  static constexpr const char *Name = "cast", *File = "Cast.facts";
  static constexpr Column Cols[] = {{Col::Var, &Fact::From},
                                    {Col::Var, &Fact::To},
                                    {Col::Type, &Fact::Type}};
  template <class DB> static auto &in(DB &X) { return X.Casts; }
};

template <>
struct InputTraits<SubtypeFact> : InputDesc<SubtypeFact, DeltaRole::Wide> {
  static constexpr const char *Name = "subtype", *File = "Subtype.facts";
  static constexpr Column Cols[] = {{Col::Type, &Fact::Sub},
                                    {Col::Type, &Fact::Super}};
  template <class DB> static auto &in(DB &X) { return X.Subtypes; }
};

// The client annotations are later schema additions: directories written
// before them load as spawn-free and taint-free.

template <>
struct InputTraits<SpawnFact>
    : InputDesc<SpawnFact, DeltaRole::Client, /*Opt=*/true> {
  static constexpr const char *Name = "spawn", *File = "Spawn.facts";
  static constexpr Column Cols[] = {{Col::Invoke, &Fact::Invoke}};
  template <class DB> static auto &in(DB &X) { return X.Spawns; }
};

template <>
struct InputTraits<TaintSourceFact>
    : InputDesc<TaintSourceFact, DeltaRole::Client, /*Opt=*/true> {
  static constexpr const char *Name = "taint_source",
                              *File = "TaintSource.facts";
  static constexpr Column Cols[] = {{Col::EntityKind, &Fact::IsField},
                                    {Col::Entity, &Fact::Entity}};
  template <class DB> static auto &in(DB &X) { return X.TaintSources; }
};

template <>
struct InputTraits<TaintSinkFact>
    : InputDesc<TaintSinkFact, DeltaRole::Client, /*Opt=*/true> {
  static constexpr const char *Name = "taint_sink", *File = "TaintSink.facts";
  static constexpr Column Cols[] = {{Col::EntityKind, &Fact::IsField},
                                    {Col::Entity, &Fact::Entity}};
  template <class DB> static auto &in(DB &X) { return X.TaintSinks; }
};

template <>
struct InputTraits<SanitizerFact>
    : InputDesc<SanitizerFact, DeltaRole::Client, /*Opt=*/true> {
  static constexpr const char *Name = "sanitizer", *File = "Sanitizer.facts";
  static constexpr Column Cols[] = {{Col::Invoke, &Fact::Invoke}};
  template <class DB> static auto &in(DB &X) { return X.Sanitizers; }
};

/// Calls \p Fn with an InputTraits<Fact>() value for each input
/// predicate, in FactDB declaration order.
template <class FnT> void forEachInput(FnT &&Fn) {
  Fn(InputTraits<ActualFact>());
  Fn(InputTraits<AssignFact>());
  Fn(InputTraits<AssignNewFact>());
  Fn(InputTraits<AssignReturnFact>());
  Fn(InputTraits<FormalFact>());
  Fn(InputTraits<HeapTypeFact>());
  Fn(InputTraits<ImplementsFact>());
  Fn(InputTraits<LoadFact>());
  Fn(InputTraits<ReturnFact>());
  Fn(InputTraits<StaticInvokeFact>());
  Fn(InputTraits<StoreFact>());
  Fn(InputTraits<ThisVarFact>());
  Fn(InputTraits<VirtualInvokeFact>());
  Fn(InputTraits<GlobalStoreFact>());
  Fn(InputTraits<GlobalLoadFact>());
  Fn(InputTraits<ThrowFact>());
  Fn(InputTraits<CatchFact>());
  Fn(InputTraits<CastFact>());
  Fn(InputTraits<SubtypeFact>());
  Fn(InputTraits<SpawnFact>());
  Fn(InputTraits<TaintSourceFact>());
  Fn(InputTraits<TaintSinkFact>());
  Fn(InputTraits<SanitizerFact>());
}

/// Decodes one row of predicate \p T from its column tokens \p Tok (one
/// per column). \p Resolve(Domain, Name) maps an entity name to its id,
/// or InvalidId. \returns an empty string on success, else the
/// fact-delta diagnostic for the first bad column.
template <class T, class ResolveFn>
std::string decodeRow(const std::string *Tok, ResolveFn &&Resolve,
                      typename T::Fact &Out) {
  Id Kind = 0;
  for (const auto &C : T::Cols) {
    const std::string &S = *Tok++;
    Id &X = Out.*C.Member;
    if (C.Kind == Col::Ordinal) {
      std::uint64_t V = 0;
      switch (parseCount(S, V, UINT32_MAX)) {
      case ParseStatus::Ok:
        break;
      case ParseStatus::NotANumber:
        return "ordinal '" + S + "' is not a number";
      case ParseStatus::OutOfRange:
        return "ordinal '" + S + "' is out of range";
      }
      X = static_cast<Id>(V);
    } else if (C.Kind == Col::EntityKind) {
      if (S == domainOf(Col::Entity, 0).Tag)
        X = 0;
      else if (S == domainOf(Col::Entity, 1).Tag)
        X = 1;
      else
        return std::string(T::Name) + " kind must be invoke or field, got '" +
               S + "'";
      Kind = X;
    } else {
      const DomainDesc &D = domainOf(C.Kind, Kind);
      X = Resolve(D, S);
      if (X == InvalidId)
        return std::string("unknown ") + D.Noun + " '" + S + "'";
    }
  }
  return {};
}

/// Renders each column of row \p F of predicate \p T as its text token
/// (names, decimal ordinals, EntityKind as its domain tag) through
/// \p Emit, in column order.
template <class T, class EmitFn>
void encodeRow(const FactDB &DB, const typename T::Fact &F, EmitFn &&Emit) {
  Id Kind = 0;
  for (const auto &C : T::Cols) {
    const Id X = F.*C.Member;
    if (C.Kind == Col::Ordinal)
      Emit(std::to_string(X));
    else if (C.Kind == Col::EntityKind)
      Emit(std::string(domainOf(Col::Entity, Kind = X).Tag));
    else
      Emit((DB.*domainOf(C.Kind, Kind).Names)[X]);
  }
}

} // namespace facts
} // namespace ctp

#endif // CTP_FACTS_SCHEMA_H
