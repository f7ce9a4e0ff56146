//===- analysis/DatalogFrontend.cpp - Rules-to-Datalog pipeline -----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogFrontend.h"

#include "datalog/Engine.h"
#include "facts/Schema.h"
#include "support/Stats.h"

#include <cassert>

using namespace ctp;
using namespace ctp::analysis;
using namespace ctp::datalog;
using ctx::CtxtVec;
using facts::FactDB;

namespace {

/// Rule-construction helper: names variables 0..N-1 and keeps the atom
/// syntax close to Figure 3.
struct RuleBuilder {
  Rule R;

  RuleBuilder &head(std::uint32_t Rel, std::initializer_list<Term> Args) {
    R.Head = {Rel, Args};
    return *this;
  }
  RuleBuilder &atom(std::uint32_t Rel, std::initializer_list<Term> Args) {
    R.Body.push_back({Rel, Args});
    return *this;
  }
  RuleBuilder &
  builtin(std::string Name,
          std::function<std::optional<Value>(const std::vector<Value> &)> Fn,
          std::initializer_list<VarIdx> Inputs,
          std::optional<VarIdx> Output) {
    BuiltinCall B;
    B.Name = std::move(Name);
    B.Fn = std::move(Fn);
    B.Inputs = Inputs;
    B.Output = Output;
    R.Builtins.push_back(std::move(B));
    return *this;
  }
  Rule take(std::uint32_t NumVars) {
    R.NumVars = NumVars;
    return std::move(R);
  }
};

Term v(VarIdx V) { return Term::var(V); }

/// The EDB relation of input predicate \p Fact.
template <class Fact> std::uint32_t edb(const Program &P) {
  return P.relationId(facts::InputTraits<Fact>::Name);
}

/// Reassembles arity-\p Arity tuples from a snapshot's flat word stream.
std::vector<Tuple> tuplesOf(const std::vector<std::uint32_t> &Words,
                            unsigned Arity) {
  std::vector<Tuple> Out;
  Out.reserve(Words.size() / Arity);
  for (std::size_t I = 0; I < Words.size(); I += Arity) {
    Tuple T;
    for (unsigned C = 0; C < Arity; ++C)
      T.V[T.N++] = Words[I + C];
    Out.push_back(T);
  }
  return Out;
}

/// One build+run of the Datalog pipeline. A failing snapshot restore
/// sets \p RestoreFailed and returns immediately; the caller re-invokes
/// without the snapshot, discarding the partially restored program,
/// domain, and context interner wholesale (they are all local here, so a
/// failed restore cannot leak state into the cold start).
Results solveOnce(const FactDB &DB, const ctx::Config &Cfg,
                  std::size_t *NumDerivations,
                  const DatalogSolveOptions &Opts,
                  const SolverSnapshot *Resume, std::string &RestoreErr,
                  bool &RestoreFailed) {
  assert(Cfg.validate().empty() && "invalid analysis configuration");
  Stopwatch Timer;

  std::vector<std::uint32_t> ClassOf(DB.numHeaps());
  for (std::size_t H = 0; H < DB.numHeaps(); ++H)
    ClassOf[H] = DB.classOfHeap(static_cast<std::uint32_t>(H));
  std::unique_ptr<ctx::Domain> Dom = ctx::makeDomain(Cfg, std::move(ClassOf));
  auto ReachCtxts =
      std::make_shared<Interner<CtxtVec, ctx::CtxtVecHash>>();

  Program Prog;

  // --- EDB relations: the solver-visible input predicates of Figure 3
  // and its extensions (client annotations take no part in the rules). ---
  facts::forEachInput([&](auto Tr) {
    if (Tr.Role == facts::DeltaRole::Client)
      return;
    const std::uint32_t Rel = Prog.addRelation(Tr.Name, std::size(Tr.Cols));
    for (const auto &F : Tr.in(DB)) {
      Tuple T;
      for (const auto &C : Tr.Cols)
        T.V[T.N++] = F.*C.Member;
      Prog.addFact(Rel, T);
    }
  });
  const std::uint32_t RAssign = edb<facts::AssignFact>(Prog),
                      RAssignNew = edb<facts::AssignNewFact>(Prog),
                      RAssignRet = edb<facts::AssignReturnFact>(Prog),
                      RActual = edb<facts::ActualFact>(Prog),
                      RFormal = edb<facts::FormalFact>(Prog),
                      RHeapType = edb<facts::HeapTypeFact>(Prog),
                      RImplements = edb<facts::ImplementsFact>(Prog),
                      RLoad = edb<facts::LoadFact>(Prog),
                      RReturn = edb<facts::ReturnFact>(Prog),
                      RStaticInv = edb<facts::StaticInvokeFact>(Prog),
                      RStore = edb<facts::StoreFact>(Prog),
                      RThisVar = edb<facts::ThisVarFact>(Prog),
                      RVirtInv = edb<facts::VirtualInvokeFact>(Prog),
                      RGlobalStore = edb<facts::GlobalStoreFact>(Prog),
                      RGlobalLoad = edb<facts::GlobalLoadFact>(Prog),
                      RThrow = edb<facts::ThrowFact>(Prog),
                      RCatch = edb<facts::CatchFact>(Prog),
                      RCast = edb<facts::CastFact>(Prog),
                      RSubtype = edb<facts::SubtypeFact>(Prog);

  // --- IDB relations (Figure 3's derived predicates). ---
  std::uint32_t RPts = Prog.addRelation("pts", 3);
  std::uint32_t RHpts = Prog.addRelation("hpts", 4);
  std::uint32_t RHload = Prog.addRelation("hload", 4);
  std::uint32_t RCall = Prog.addRelation("call", 3);
  std::uint32_t RReach = Prog.addRelation("reach", 2);
  std::uint32_t RGpts = Prog.addRelation("gpts", 3);

  // [ENTRY] reach(main, [entry]) — pre-seeded derived facts.
  {
    CtxtVec Entry;
    Entry.push_back(ctx::EntryElem);
    Value Ctx = ReachCtxts->intern(Entry.takePrefix(Cfg.MethodDepth));
    for (std::uint32_t E : DB.EntryMethods)
      Prog.addFact(RReach, {E, Ctx});
  }

  // --- Builtin functors over the interned domain. ---
  unsigned M = Cfg.MethodDepth, H = Cfg.HeapDepth;
  ctx::Domain *D = Dom.get();
  auto *RC = ReachCtxts.get();

  auto RecordFn = [D, RC](const std::vector<Value> &In) {
    return std::optional<Value>(D->record((*RC)[In[0]]));
  };
  auto InvFn = [D](const std::vector<Value> &In) {
    return std::optional<Value>(D->inv(In[0]));
  };
  auto CompHH = [D, H](const std::vector<Value> &In) {
    return D->comp(In[0], In[1], H, H);
  };
  auto CompHM = [D, H, M](const std::vector<Value> &In) {
    return D->comp(In[0], In[1], H, M);
  };
  auto MergeVFn = [D](const std::vector<Value> &In) {
    return std::optional<Value>(D->mergeVirtual(In[0], In[1], In[2]));
  };
  auto MergeSFn = [D, RC](const std::vector<Value> &In) {
    return std::optional<Value>(D->mergeStatic(In[0], (*RC)[In[1]]));
  };
  auto TargetFn = [D, RC](const std::vector<Value> &In) {
    return std::optional<Value>(RC->intern(D->target(In[0])));
  };
  auto GlobalizeFn = [D](const std::vector<Value> &In) {
    return std::optional<Value>(D->globalize(In[0]));
  };
  auto RetargetFn = [D, RC](const std::vector<Value> &In) {
    return std::optional<Value>(D->retarget(In[0], (*RC)[In[1]]));
  };

  // --- The rules of Figure 3. Variable numbering is per rule. ---

  // [NEW] pts(Y,Hp,A) :- assign_new(Hp,Y,P), reach(P,Mx), A := record(Mx).
  {
    RuleBuilder B;
    enum { Hp, Y, P, Mx, A, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RAssignNew, {v(Hp), v(Y), v(P)})
        .atom(RReach, {v(P), v(Mx)})
        .builtin("record", RecordFn, {Mx}, A);
    Prog.addRule(B.take(N));
  }

  // [ASSIGN] pts(Y,Hp,A) :- pts(Z,Hp,A), assign(Z,Y).
  {
    RuleBuilder B;
    enum { Z, Hp, A, Y, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RPts, {v(Z), v(Hp), v(A)})
        .atom(RAssign, {v(Z), v(Y)});
    Prog.addRule(B.take(N));
  }

  // [CAST] pts(Y,Hp,A) :- pts(Z,Hp,A), cast(Z,Y,T), heap_type(Hp,Tp),
  //                       subtype(Tp,T).
  {
    RuleBuilder B;
    enum { Z, Hp, A, Y, T, Tp, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RPts, {v(Z), v(Hp), v(A)})
        .atom(RCast, {v(Z), v(Y), v(T)})
        .atom(RHeapType, {v(Hp), v(Tp)})
        .atom(RSubtype, {v(Tp), v(T)});
    Prog.addRule(B.take(N));
  }

  // [LOAD] hload(G,F,Z,A) :- pts(Y,G,A), load(Y,F,Z).
  {
    RuleBuilder B;
    enum { Y, G, A, F, Z, N };
    B.head(RHload, {v(G), v(F), v(Z), v(A)})
        .atom(RPts, {v(Y), v(G), v(A)})
        .atom(RLoad, {v(Y), v(F), v(Z)});
    Prog.addRule(B.take(N));
  }

  // [STORE] hpts(G,F,Hp,A) :- pts(X,Hp,Bt), store(X,F,Z), pts(Z,G,C),
  //                           IC := inv(C), A := comp_hh(Bt, IC).
  {
    RuleBuilder B;
    enum { X, Hp, Bt, F, Z, G, C, IC, A, N };
    B.head(RHpts, {v(G), v(F), v(Hp), v(A)})
        .atom(RPts, {v(X), v(Hp), v(Bt)})
        .atom(RStore, {v(X), v(F), v(Z)})
        .atom(RPts, {v(Z), v(G), v(C)})
        .builtin("inv", InvFn, {C}, IC)
        .builtin("comp_hh", CompHH, {Bt, IC}, A);
    Prog.addRule(B.take(N));
  }

  // [IND] pts(Y,Hp,A) :- hpts(G,F,Hp,Bt), hload(G,F,Y,C),
  //                      A := comp_hm(Bt, C).
  {
    RuleBuilder B;
    enum { G, F, Hp, Bt, Y, C, A, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RHpts, {v(G), v(F), v(Hp), v(Bt)})
        .atom(RHload, {v(G), v(F), v(Y), v(C)})
        .builtin("comp_hm", CompHM, {Bt, C}, A);
    Prog.addRule(B.take(N));
  }

  // [PARAM] pts(Y,Hp,A) :- pts(Z,Hp,Bt), actual(Z,I,O), call(I,P,C),
  //                        formal(Y,P,O), A := comp_hm(Bt, C).
  {
    RuleBuilder B;
    enum { Z, Hp, Bt, I, O, P, C, Y, A, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RPts, {v(Z), v(Hp), v(Bt)})
        .atom(RActual, {v(Z), v(I), v(O)})
        .atom(RCall, {v(I), v(P), v(C)})
        .atom(RFormal, {v(Y), v(P), v(O)})
        .builtin("comp_hm", CompHM, {Bt, C}, A);
    Prog.addRule(B.take(N));
  }

  // [RET] pts(Y,Hp,A) :- pts(Z,Hp,Bt), return(Z,P), call(I,P,C),
  //                      assign_return(I,Y), IC := inv(C),
  //                      A := comp_hm(Bt, IC).
  {
    RuleBuilder B;
    enum { Z, Hp, Bt, P, I, C, Y, IC, A, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RPts, {v(Z), v(Hp), v(Bt)})
        .atom(RReturn, {v(Z), v(P)})
        .atom(RCall, {v(I), v(P), v(C)})
        .atom(RAssignRet, {v(I), v(Y)})
        .builtin("inv", InvFn, {C}, IC)
        .builtin("comp_hm", CompHM, {Bt, IC}, A);
    Prog.addRule(B.take(N));
  }

  // [VIRT] call(I,Q,C) :- virtual_invoke(I,Z,S), pts(Z,Hp,Bt),
  //                       heap_type(Hp,T), implements(Q,T,S),
  //                       C := merge(Hp,I,Bt).
  {
    RuleBuilder B;
    enum { I, Z, S, Hp, Bt, T, Q, C, N };
    B.head(RCall, {v(I), v(Q), v(C)})
        .atom(RVirtInv, {v(I), v(Z), v(S)})
        .atom(RPts, {v(Z), v(Hp), v(Bt)})
        .atom(RHeapType, {v(Hp), v(T)})
        .atom(RImplements, {v(Q), v(T), v(S)})
        .builtin("merge", MergeVFn, {Hp, I, Bt}, C);
    Prog.addRule(B.take(N));
  }

  // [VIRT-this] pts(Y,Hp,A) :- virtual_invoke(I,Z,S), pts(Z,Hp,Bt),
  //                            heap_type(Hp,T), implements(Q,T,S),
  //                            this_var(Y,Q), C := merge(Hp,I,Bt),
  //                            A := comp_hm(Bt, C).
  {
    RuleBuilder B;
    enum { I, Z, S, Hp, Bt, T, Q, Y, C, A, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RVirtInv, {v(I), v(Z), v(S)})
        .atom(RPts, {v(Z), v(Hp), v(Bt)})
        .atom(RHeapType, {v(Hp), v(T)})
        .atom(RImplements, {v(Q), v(T), v(S)})
        .atom(RThisVar, {v(Y), v(Q)})
        .builtin("merge", MergeVFn, {Hp, I, Bt}, C)
        .builtin("comp_hm", CompHM, {Bt, C}, A);
    Prog.addRule(B.take(N));
  }

  // [STATIC] call(I,Q,A) :- static_invoke(I,Q,P), reach(P,Mx),
  //                         A := merge_s(I,Mx).
  {
    RuleBuilder B;
    enum { I, Q, P, Mx, A, N };
    B.head(RCall, {v(I), v(Q), v(A)})
        .atom(RStaticInv, {v(I), v(Q), v(P)})
        .atom(RReach, {v(P), v(Mx)})
        .builtin("merge_s", MergeSFn, {I, Mx}, A);
    Prog.addRule(B.take(N));
  }

  // [THROW] pts(Y,Hp,A) :- pts(Z,Hp,Bt), throw(Z,P), call(I,P,C),
  //                        catch(I,Y), IC := inv(C), A := comp_hm(Bt,IC).
  {
    RuleBuilder B;
    enum { Z, Hp, Bt, P, I, C, Y, IC, A, N };
    B.head(RPts, {v(Y), v(Hp), v(A)})
        .atom(RPts, {v(Z), v(Hp), v(Bt)})
        .atom(RThrow, {v(Z), v(P)})
        .atom(RCall, {v(I), v(P), v(C)})
        .atom(RCatch, {v(I), v(Y)})
        .builtin("inv", InvFn, {C}, IC)
        .builtin("comp_hm", CompHM, {Bt, IC}, A);
    Prog.addRule(B.take(N));
  }

  // [GSTORE] gpts(G,Hp,A) :- pts(X,Hp,Bt), global_store(X,G),
  //                          A := globalize(Bt).
  {
    RuleBuilder B;
    enum { X, Hp, Bt, G, A, N };
    B.head(RGpts, {v(G), v(Hp), v(A)})
        .atom(RPts, {v(X), v(Hp), v(Bt)})
        .atom(RGlobalStore, {v(X), v(G)})
        .builtin("globalize", GlobalizeFn, {Bt}, A);
    Prog.addRule(B.take(N));
  }

  // [GLOAD] pts(Z,Hp,A) :- gpts(G,Hp,Bt), global_load(G,Z,P),
  //                        reach(P,Mx), A := retarget(Bt,Mx).
  {
    RuleBuilder B;
    enum { G, Hp, Bt, Z, P, Mx, A, N };
    B.head(RPts, {v(Z), v(Hp), v(A)})
        .atom(RGpts, {v(G), v(Hp), v(Bt)})
        .atom(RGlobalLoad, {v(G), v(Z), v(P)})
        .atom(RReach, {v(P), v(Mx)})
        .builtin("retarget", RetargetFn, {Bt, Mx}, A);
    Prog.addRule(B.take(N));
  }

  // [REACH] reach(P,Mx) :- call(I,P,C), Mx := target(C).
  {
    RuleBuilder B;
    enum { I, P, C, Mx, N };
    B.head(RReach, {v(P), v(Mx)})
        .atom(RCall, {v(I), v(P), v(C)})
        .builtin("target", TargetFn, {C}, Mx);
    Prog.addRule(B.take(N));
  }

  const CheckpointPolicy &Ckpt = Opts.Checkpoint;
  std::uint64_t FP = 0, LH = 0;
  if (Ckpt.enabled() || Resume) {
    FP = DB.fingerprint();
    LH = DB.layoutHash();
  }

  if (Resume) {
    const SolverSnapshot &S = *Resume;
    auto Fail = [&](const char *Msg) {
      RestoreErr = Msg;
      RestoreFailed = true;
      return Results();
    };
    if (S.BackendTag != SolverSnapshot::Backend::Datalog)
      return Fail("snapshot was written by a different back-end");
    if (S.Collapse)
      return Fail("snapshot collapse mode differs from this run");
    if (S.Config.Abs != Cfg.Abs || S.Config.Flav != Cfg.Flav ||
        S.Config.MethodDepth != Cfg.MethodDepth ||
        S.Config.HeapDepth != Cfg.HeapDepth)
      return Fail("snapshot configuration differs from this run");
    if (S.Fingerprint != FP)
      return Fail("snapshot fingerprint does not match the fact database");
    if (S.LayoutHash != LH)
      return Fail("snapshot fact layout does not match the fact database");
    if (!D->importInterned(S.DomainWords))
      return Fail("snapshot transformation domain is inconsistent");
    if (!decodeCtxtInterner(S.ReachCtxtWords, *RC))
      return Fail("snapshot reach-context table is inconsistent");
    const IdLimits L = idLimits(DB, D->size(), RC->size());
    bool InRange = true;
    forEachRelation([&](auto Tr) {
      using Fact = typename decltype(Tr)::Fact;
      const std::vector<std::uint32_t> &W = Tr.in(S).Words;
      for (std::size_t I = 0; InRange && I < W.size(); I += Tr.Arity)
        InRange = inRange<Fact>(&W[I], L);
    });
    if (!InRange)
      return Fail("snapshot relations have out-of-range ids");
    forEachRelation([&](auto Tr) {
      Prog.restoreDerived(Prog.relationId(Tr.Name),
                          tuplesOf(Tr.in(S).Words, Tr.Arity), Tr.in(S).Head);
    });
    Prog.restoreCounters(static_cast<std::size_t>(S.Rounds),
                         static_cast<std::size_t>(S.DerivedTuples),
                         static_cast<std::size_t>(S.Derivations));
  }

  SolverSnapshot LastSnap;
  bool WroteSnap = false;
  std::string CkptErr;
  // A snapshot of every derived relation's rows. Each head is the start
  // of the relation's delta in the round-boundary view \p V or, without
  // one, the relation's size (a converged image).
  auto Capture = [&](const Program::CheckpointView *V) {
    SolverSnapshot S;
    S.BackendTag = SolverSnapshot::Backend::Datalog;
    S.Collapse = false;
    S.Config = Cfg;
    S.Fingerprint = FP;
    S.LayoutHash = LH;
    D->exportInterned(S.DomainWords);
    encodeCtxtInterner(*RC, S.ReachCtxtWords);
    forEachRelation([&](auto Tr) {
      const std::uint32_t Rel = Prog.relationId(Tr.Name);
      const std::vector<Tuple> &Rows = Prog.relation(Rel).rows();
      RelationWords &Dst = Tr.in(S);
      Dst.Head = Rows.size();
      if (V)
        for (const auto &St : V->Derived)
          if (St.Rel == Rel)
            Dst.Head = St.DeltaStart;
      for (const Tuple &T : Rows)
        Dst.Words.insert(Dst.Words.end(), T.V.begin(), T.V.begin() + T.N);
      S.Progress.PendingWork += Rows.size() - Dst.Head;
    });
    return S;
  };
  if (Ckpt.enabled()) {
    const std::string Path = checkpointPath(Ckpt.Dir);
    Prog.setCheckpointHook(
        Ckpt.EveryDerivations, [&, Path](const Program::CheckpointView &V) {
          SolverSnapshot S = Capture(&V);
          S.Rounds = V.Rounds;
          S.DerivedTuples = V.DerivedTuples;
          S.Derivations = V.Derivations;
          S.Tuples = V.DerivedTuples;
          S.Term = TerminationReason::Converged;
          S.Progress.Iterations = V.Rounds;
          S.Progress.Derivations = V.Derivations;
          std::string E = analysis::writeSnapshot(S, Path);
          if (E.empty()) {
            LastSnap = std::move(S);
            WroteSnap = true;
          } else if (CkptErr.empty()) {
            CkptErr = "checkpoint write failed: " + E;
          }
        });
  }

  RunStats RS = Prog.run(Opts.Budget);
  if (NumDerivations)
    *NumDerivations = Prog.numDerivations();

  if (Ckpt.enabled()) {
    if (RS.Term == TerminationReason::Converged) {
      if (Ckpt.KeepOnConverge) {
        // Mirror the native solver: a final converged snapshot with every
        // relation head at size, so a restore warm-starts straight into
        // the fixpoint.
        SolverSnapshot S = Capture(nullptr);
        S.Rounds = RS.Rounds;
        S.DerivedTuples = RS.DerivedTuples;
        S.Derivations = Prog.numDerivations();
        S.Tuples = RS.DerivedTuples;
        S.Term = TerminationReason::Converged;
        S.Progress.Iterations = RS.Rounds;
        S.Progress.Derivations = Prog.numDerivations();
        std::string E =
            analysis::writeSnapshot(S, checkpointPath(Ckpt.Dir));
        if (!E.empty() && CkptErr.empty())
          CkptErr = "checkpoint write failed: " + E;
      } else {
        // The fixpoint is in hand; a stale snapshot must not outlive it.
        removeSnapshot(Ckpt.Dir);
      }
    } else if (WroteSnap) {
      // Budget exhausted mid-round: the resumable state stays the last
      // boundary's, but the trailer should carry the trip reason and the
      // final progress counters of this invocation.
      LastSnap.Term = RS.Term;
      LastSnap.Progress.Iterations = RS.Rounds;
      LastSnap.Progress.Derivations = Prog.numDerivations();
      LastSnap.Progress.PendingWork = RS.PendingWork;
      std::string E =
          analysis::writeSnapshot(LastSnap, checkpointPath(Ckpt.Dir));
      if (!E.empty() && CkptErr.empty())
        CkptErr = "checkpoint write failed: " + E;
    }
  }

  Results R;
  R.Config = Cfg;
  forEachRelation([&](auto Tr) {
    for (const Tuple &T : Prog.relation(Prog.relationId(Tr.Name)).rows())
      Tr.in(R).push_back(Tr.decode(T.V.data()));
  });
  R.countRelations();
  R.Stat.DomainSize = Dom->size();
  R.Stat.DomainTraffic = Dom->counters();
  R.Stat.Seconds = Timer.seconds();
  R.Stat.Term = RS.Term;
  R.Stat.Progress.Iterations = RS.Rounds;
  R.Stat.Progress.Derivations = Prog.numDerivations();
  R.Stat.Progress.PendingWork = RS.PendingWork;
  R.Stat.CheckpointError = CkptErr;
  R.Dom = std::move(Dom);
  R.ReachCtxts = ReachCtxts;
  return R;
}

} // namespace

Results analysis::solveViaDatalog(const FactDB &DB, const ctx::Config &Cfg,
                                  std::size_t *NumDerivations,
                                  const BudgetSpec &Budget) {
  DatalogSolveOptions Opts;
  Opts.Budget = Budget;
  return solveViaDatalog(DB, Cfg, Opts, NumDerivations);
}

Results analysis::solveViaDatalog(const FactDB &DB, const ctx::Config &Cfg,
                                  const DatalogSolveOptions &Opts,
                                  std::size_t *NumDerivations) {
  std::string RestoreErr;
  bool RestoreFailed = false;
  Results R = solveOnce(DB, Cfg, NumDerivations, Opts, Opts.Resume,
                        RestoreErr, RestoreFailed);
  if (!RestoreFailed)
    return R;
  // A snapshot that fails its structural checks must never crash the
  // run: rebuild everything from scratch without it.
  std::string Ignored;
  bool ColdFailed = false;
  R = solveOnce(DB, Cfg, NumDerivations, Opts, nullptr, Ignored, ColdFailed);
  if (R.Stat.CheckpointError.empty())
    R.Stat.CheckpointError = "resume failed: " + RestoreErr;
  return R;
}
