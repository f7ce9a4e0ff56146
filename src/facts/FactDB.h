//===- facts/FactDB.h - Figure-3 input predicates ---------------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input predicates, stored as flat vectors of id tuples: the thirteen
/// of Figure 3 of the paper, six extensions its evaluated implementation
/// has (global_store, global_load, throw, catch, cast, subtype), and four
/// client annotations (spawn, taint_source, taint_sink, sanitizer), plus
/// the entry points and the auxiliary parent/classOf information the
/// context-sensitivity flavours need (classOf(H) for type sensitivity is
/// "the class type in which the method that contains H is implemented").
/// facts/Schema.h describes each of the 23 predicates once.
///
/// A FactDB is the sole interface between program representations and the
/// analysis: it can be extracted from an ir::Program (facts/Extract.h) or
/// read from Doop-style TSV files (facts/TsvIO.h), mirroring how the paper
/// consumes Soot-extracted facts.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_FACTS_FACTDB_H
#define CTP_FACTS_FACTDB_H

#include <cstdint>
#include <string>
#include <vector>

namespace ctp {
namespace facts {

using Id = std::uint32_t;
constexpr Id InvalidId = UINT32_MAX;

/// assign(Z, Y): "Y = Z;" — value flows from Z to Y.
struct AssignFact {
  Id From, To;
};

/// assign_new(H, Y, P): "Y = new T(); // H" inside method P.
struct AssignNewFact {
  Id Heap, To, InMethod;
};

/// assign_return(I, Y): the return value of invocation I is assigned to Y.
struct AssignReturnFact {
  Id Invoke, To;
};

/// actual(Z, I, O): Z is the O-th actual of invocation I (0-based).
struct ActualFact {
  Id Var, Invoke, Ordinal;
};

/// formal(Y, P, O): Y is the O-th formal of method P (0-based).
struct FormalFact {
  Id Var, Method, Ordinal;
};

/// heap_type(H, T): objects allocated at H have run-time type T.
struct HeapTypeFact {
  Id Heap, Type;
};

/// implements(Q, T, S): invoking signature S on a receiver of type T
/// dispatches to concrete method Q.
struct ImplementsFact {
  Id Method, Type, Sig;
};

/// load(Y, F, Z): "Z = Y.F;" — Y is the base, Z the destination.
struct LoadFact {
  Id Base, Field, To;
};

/// return(Z, P): Z may carry the return value of method P.
struct ReturnFact {
  Id Var, Method;
};

/// static_invoke(I, Q, P): invocation I in method P statically calls Q.
struct StaticInvokeFact {
  Id Invoke, Target, InMethod;
};

/// store(X, F, Z): "Z.F = X;" — X is the stored value, Z the base.
struct StoreFact {
  Id From, Field, Base;
};

/// this_var(Y, Q): Y is the `this` variable of method Q.
struct ThisVarFact {
  Id Var, Method;
};

/// virtual_invoke(I, Z, S): invocation I dispatches signature S on the
/// object pointed to by receiver variable Z.
struct VirtualInvokeFact {
  Id Invoke, Receiver, Sig;
};

/// global_store(X, G): "G = X;" for static/global field G.
struct GlobalStoreFact {
  Id From, Global;
};

/// global_load(G, Z, P): "Z = G;" inside method P.
struct GlobalLoadFact {
  Id Global, To, InMethod;
};

/// throw(Z, P): method P may throw the object held by Z.
struct ThrowFact {
  Id Var, Method;
};

/// catch(I, Y): exceptions escaping the callee of invocation I are caught
/// into Y.
struct CatchFact {
  Id Invoke, To;
};

/// cast(Z, Y, T): "Y = (T) Z;" — only objects of a subtype of T flow.
struct CastFact {
  Id From, To, Type;
};

/// subtype(T1, T2): T1 is T2 or transitively extends it. Materialized by
/// the extractor (reflexive-transitive closure of the superclass chain).
struct SubtypeFact {
  Id Sub, Super;
};

/// spawn(I): invocation I is a thread-spawn marker (`Thread.start`-style).
/// I also appears in virtual_invoke — data flow into the spawned entry
/// method is exactly a virtual call's — but execution is concurrent: the
/// resolved targets of I are thread entry points for the race-candidate
/// client, and the call binds no result.
struct SpawnFact {
  Id Invoke;
};

/// taint_source(K, E): values produced by entity E are tainted. K selects
/// the entity kind: IsField == 0 means E is an invocation (the call's
/// result objects are tainted), IsField == 1 means E is a field (objects
/// stored into it are tainted). Optional on read, like Spawn.facts.
struct TaintSourceFact {
  Id IsField, Entity;
};

/// taint_sink(K, E): tainted values must not reach entity E — the actuals
/// of an invocation (IsField == 0) or the values stored into a field
/// (IsField == 1). Optional on read.
struct TaintSinkFact {
  Id IsField, Entity;
};

/// sanitizer(I): invocation I launders its inputs — the call's result is
/// trusted clean even when its actuals were tainted. Call sites only (a
/// field cannot launder values). Optional on read.
struct SanitizerFact {
  Id Invoke;
};

/// The extracted-facts database consumed by every analysis in this project.
struct FactDB {
  // --- Domain sizes and human-readable names (names are only used for
  // printing results; the analysis operates on ids). ---
  std::vector<std::string> VarNames;
  std::vector<std::string> HeapNames;
  std::vector<std::string> MethodNames;
  std::vector<std::string> InvokeNames;
  std::vector<std::string> FieldNames;
  std::vector<std::string> TypeNames;
  std::vector<std::string> SigNames;

  /// Program entry point(s). reach(main, [entry]) seeds the analysis.
  std::vector<Id> EntryMethods;

  // --- Figure 3 input predicates. ---
  std::vector<ActualFact> Actuals;
  std::vector<AssignFact> Assigns;
  std::vector<AssignNewFact> AssignNews;
  std::vector<AssignReturnFact> AssignReturns;
  std::vector<FormalFact> Formals;
  std::vector<HeapTypeFact> HeapTypes;
  std::vector<ImplementsFact> Implements;
  std::vector<LoadFact> Loads;
  std::vector<ReturnFact> Returns;
  std::vector<StaticInvokeFact> StaticInvokes;
  std::vector<StoreFact> Stores;
  std::vector<ThisVarFact> ThisVars;
  std::vector<VirtualInvokeFact> VirtualInvokes;

  // --- Extensions present in the paper's evaluated implementation but
  // elided from its Figure 3 (static fields, exceptions). ---
  std::vector<std::string> GlobalNames;
  std::vector<GlobalStoreFact> GlobalStores;
  std::vector<GlobalLoadFact> GlobalLoads;
  std::vector<ThrowFact> Throws;
  std::vector<CatchFact> Catches;
  std::vector<CastFact> Casts;
  std::vector<SubtypeFact> Subtypes;
  std::vector<SpawnFact> Spawns;

  // --- Taint-client annotations (clients/Taint.h). Like Spawn.facts,
  // these are a later schema addition: optional on read, always written.
  std::vector<TaintSourceFact> TaintSources;
  std::vector<TaintSinkFact> TaintSinks;
  std::vector<SanitizerFact> Sanitizers;

  std::size_t numGlobals() const { return GlobalNames.size(); }

  // --- Auxiliary per-entity attributes used by flavour policies and
  // clients (parent(...) and classOf(...) in the paper's prose). ---
  std::vector<Id> VarParent;     ///< variable -> declaring method
  std::vector<Id> HeapParent;    ///< heap site -> containing method
  std::vector<Id> InvokeParent;  ///< invocation -> containing method
  std::vector<Id> MethodClass;   ///< method -> declaring class

  std::size_t numVars() const { return VarNames.size(); }
  std::size_t numHeaps() const { return HeapNames.size(); }
  std::size_t numMethods() const { return MethodNames.size(); }
  std::size_t numInvokes() const { return InvokeNames.size(); }
  std::size_t numFields() const { return FieldNames.size(); }
  std::size_t numTypes() const { return TypeNames.size(); }
  std::size_t numSigs() const { return SigNames.size(); }

  /// classOf(H): the class declaring the method that contains heap site H.
  Id classOfHeap(Id H) const { return MethodClass[HeapParent[H]]; }

  /// Total number of input facts across all 23 predicates (entry points
  /// and parent tables excluded).
  std::size_t numInputFacts() const;

  /// Deterministic, order-independent content hash of everything the
  /// analysis consumes: every fact is hashed through its entity *names*
  /// (not ids) and the per-fact hashes are combined commutatively, so two
  /// fact directories holding the same facts in any row order — and hence
  /// under any id assignment — fingerprint identically. Used to decide
  /// whether a checkpoint snapshot belongs to this fact set at all.
  std::uint64_t fingerprint() const;

  /// Order-dependent companion of fingerprint(): hashes the exact id
  /// layout (name tables in order) and fact order. Two databases agree
  /// iff they would drive the solver through the identical derivation
  /// sequence, which is the stronger precondition a byte-identical
  /// checkpoint *resume* needs (id assignment and fact order determine
  /// rule-firing order).
  std::uint64_t layoutHash() const;

  /// Checks referential integrity of every fact (ids within domain bounds,
  /// parent tables sized to domains). \returns an empty string if valid.
  std::string validate() const;
};

} // namespace facts
} // namespace ctp

#endif // CTP_FACTS_FACTDB_H
