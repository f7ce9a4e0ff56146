//===- analysis/Unify.cpp - Unification (Steensgaard) solver --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Unify.h"

#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace ctp;
using namespace ctp::analysis;
using facts::FactDB;
using facts::Id;

namespace {

std::uint64_t pairKey(std::uint32_t A, std::uint32_t B) {
  return (static_cast<std::uint64_t>(A) << 32) | B;
}

/// Enumerates every class-hierarchy-possible (invoke, callee) binding:
/// static invokes bind their one target; virtual invokes bind every
/// implementation of their signature (receiver types are unknown before
/// solving — this is plain CHA). Deterministic in fact order; \p Visit
/// may see duplicate pairs.
template <typename Fn> void forEachChaBinding(const FactDB &DB, Fn Visit) {
  for (const auto &F : DB.StaticInvokes)
    Visit(F.Invoke, F.Target);
  if (DB.VirtualInvokes.empty())
    return;
  std::unordered_map<std::uint32_t, std::vector<Id>> BySig;
  for (const auto &F : DB.Implements)
    BySig[F.Sig].push_back(F.Method);
  for (const auto &F : DB.VirtualInvokes) {
    auto It = BySig.find(F.Sig);
    if (It == BySig.end())
      continue;
    for (Id Q : It->second)
      Visit(F.Invoke, Q);
  }
}

/// Visits the variable pairs an (invoke, callee) binding equates:
/// actual<->formal per ordinal, return<->assign_return target, and
/// throw<->catch target.
struct BindingPairs {
  std::vector<std::vector<std::pair<Id, Id>>> ActualByInvoke; // (ord, var)
  std::unordered_map<std::uint64_t, Id> FormalOf;             // (method,ord)
  std::vector<std::vector<Id>> AssignRetByInvoke, CatchByInvoke;
  std::vector<std::vector<Id>> ReturnByMethod, ThrowByMethod;

  explicit BindingPairs(const FactDB &DB)
      : ActualByInvoke(DB.numInvokes()), AssignRetByInvoke(DB.numInvokes()),
        CatchByInvoke(DB.numInvokes()), ReturnByMethod(DB.numMethods()),
        ThrowByMethod(DB.numMethods()) {
    for (const auto &F : DB.Actuals)
      ActualByInvoke[F.Invoke].push_back({F.Ordinal, F.Var});
    for (const auto &F : DB.Formals)
      FormalOf.emplace(pairKey(F.Method, F.Ordinal), F.Var);
    for (const auto &F : DB.AssignReturns)
      AssignRetByInvoke[F.Invoke].push_back(F.To);
    for (const auto &F : DB.Catches)
      CatchByInvoke[F.Invoke].push_back(F.To);
    for (const auto &F : DB.Returns)
      ReturnByMethod[F.Method].push_back(F.Var);
    for (const auto &F : DB.Throws)
      ThrowByMethod[F.Method].push_back(F.Var);
  }

  template <typename Fn>
  void forEachPair(Id Invoke, Id Callee, Fn Visit) const {
    for (const auto &[Ord, Z] : ActualByInvoke[Invoke])
      if (auto It = FormalOf.find(pairKey(Callee, Ord));
          It != FormalOf.end())
        Visit(Z, It->second);
    for (Id Z : ReturnByMethod[Callee])
      for (Id Y : AssignRetByInvoke[Invoke])
        Visit(Z, Y);
    for (Id Z : ThrowByMethod[Callee])
      for (Id Y : CatchByInvoke[Invoke])
        Visit(Z, Y);
  }
};

//===----------------------------------------------------------------------===//
// Union-find with union-by-rank and path compression.
//===----------------------------------------------------------------------===//

class UnionFind {
public:
  explicit UnionFind(std::size_t N) : Parent(N), Rank(N, 0) {
    for (std::size_t I = 0; I < N; ++I)
      Parent[I] = static_cast<Id>(I);
  }

  Id find(Id V) {
    Id Root = V;
    while (Parent[Root] != Root)
      Root = Parent[Root];
    while (Parent[V] != Root) { // Path compression.
      Id Next = Parent[V];
      Parent[V] = Root;
      V = Next;
    }
    return Root;
  }

  void unite(Id A, Id B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (Rank[A] < Rank[B])
      std::swap(A, B);
    Parent[B] = A;
    if (Rank[A] == Rank[B])
      ++Rank[A];
  }

private:
  std::vector<Id> Parent;
  std::vector<std::uint8_t> Rank;
};

//===----------------------------------------------------------------------===//
// The propagation core over the quotient graph.
//===----------------------------------------------------------------------===//

constexpr Id NoFilter = facts::InvalidId;

/// A directed inclusion edge between cells; Filter, when set, admits only
/// heaps whose run-time type is a subtype of it (cast semantics).
struct CellEdge {
  std::uint32_t To;
  Id Filter;
};

class UnifySolver {
public:
  UnifySolver(const FactDB &DB, const ctx::Config &Cfg,
              const SolverOptions &Opts)
      : DB(DB), Cfg(Cfg), Meter(Opts.Budget), UF(DB.numVars()),
        Binds(DB) {}

  Results run() {
    Stopwatch Timer;
    buildClasses();
    buildCells();
    seed();
    drain();
    return materialize(Timer);
  }

private:
  //===--- Phase 1: unification ------------------------------------------===//

  void buildClasses() {
    // Plain assignments are symmetric under unification: the whole
    // component shares one points-to set.
    for (const auto &A : DB.Assigns)
      UF.unite(A.From, A.To);
    // CHA-possible parameter/return/throw bindings are merged
    // unconditionally (context transformations would keep them apart;
    // giving that up is what makes unify the cheapest rung).
    forEachChaBinding(DB, [&](Id Invoke, Id Callee) {
      Binds.forEachPair(Invoke, Callee,
                        [&](Id A, Id B) { UF.unite(A, B); });
    });
  }

  //===--- Phase 2: quotient-graph construction --------------------------===//

  // Cell layout: [0, numVars) variable classes (only representatives are
  // populated), [numVars, numVars + numGlobals) global cells, then field
  // cells (heap, field) created on demand.
  std::uint32_t varCell(Id V) { return UF.find(V); }
  std::uint32_t globalCell(Id G) {
    return static_cast<std::uint32_t>(DB.numVars() + G);
  }
  std::uint32_t fieldCell(Id Heap, Id Field) {
    auto [It, Inserted] =
        FieldCellOf.emplace(pairKey(Heap, Field), NextCell);
    if (Inserted) {
      ++NextCell;
      Pts.emplace_back();
      Out.emplace_back();
      FieldCells.push_back({Heap, Field});
    }
    return It->second;
  }

  void addEdge(std::uint32_t From, std::uint32_t To, Id Filter) {
    if (From == To)
      return; // Self-inclusion is a no-op.
    Out[From].push_back({To, Filter});
    // Flush what already arrived; later arrivals flow at event time.
    // (Safe to iterate in place: deliver only mutates other cells — the
    // self-edge case returned above.)
    for (Id H : Pts[From])
      if (Filter == NoFilter || castAdmits(H, Filter))
        deliver(To, H);
  }

  bool castAdmits(Id Heap, Id Type) const {
    return HeapTypeOf[Heap] != facts::InvalidId &&
           SubtypePairs.count(pairKey(HeapTypeOf[Heap], Type)) != 0;
  }

  void buildCells() {
    const std::size_t NVars = DB.numVars();
    NextCell = static_cast<std::uint32_t>(NVars + DB.numGlobals());
    Pts.resize(NextCell);
    Out.resize(NextCell);

    HeapTypeOf.assign(DB.numHeaps(), facts::InvalidId);
    for (const auto &F : DB.HeapTypes)
      HeapTypeOf[F.Heap] = F.Type;
    for (const auto &F : DB.Subtypes)
      SubtypePairs.insert(pairKey(F.Sub, F.Super));
    for (const auto &F : DB.Implements)
      Dispatch.emplace(pairKey(F.Type, F.Sig), F.Method);
    ThisOf.assign(DB.numMethods(), facts::InvalidId);
    for (const auto &F : DB.ThisVars)
      ThisOf[F.Method] = F.Var;

    // Statement rows keyed by the class whose heap arrivals drive them.
    LoadRows.resize(NextCell);
    StoreRows.resize(NextCell);
    VirtRows.resize(NextCell);
    for (const auto &F : DB.Loads)
      LoadRows[varCell(F.Base)].push_back({F.Field, varCell(F.To)});
    for (const auto &F : DB.Stores)
      StoreRows[varCell(F.Base)].push_back({F.Field, varCell(F.From)});
    for (const auto &F : DB.VirtualInvokes)
      VirtRows[varCell(F.Receiver)].push_back({F.Invoke, F.Sig});
    // Casts and global stores need no event-time work: static edges.
    for (const auto &F : DB.Casts)
      addEdge(varCell(F.From), varCell(F.To), F.Type);
    for (const auto &F : DB.GlobalStores)
      addEdge(varCell(F.From), globalCell(F.Global), NoFilter);

    StaticByMethod.resize(DB.numMethods());
    for (const auto &F : DB.StaticInvokes)
      StaticByMethod[F.InMethod].push_back({F.Invoke, F.Target});
    NewByMethod.resize(DB.numMethods());
    for (const auto &F : DB.AssignNews)
      NewByMethod[F.InMethod].push_back({F.Heap, F.To});
    GloadByMethod.resize(DB.numMethods());
    for (const auto &F : DB.GlobalLoads)
      GloadByMethod[F.InMethod].push_back({F.Global, F.To});

    Reached.assign(DB.numMethods(), false);
  }

  //===--- Phase 3: propagation ------------------------------------------===//

  void deliver(std::uint32_t Cell, Id Heap) {
    Meter.chargeDerivations();
    if (!Pts[Cell].insert(Heap).second)
      return;
    Meter.chargeTuple();
    Work.push_back(pairKey(Cell, Heap));
  }

  void markReached(Id Method) {
    if (Reached[Method])
      return;
    Reached[Method] = true;
    MethodWork.push_back(Method);
  }

  void seed() {
    for (Id E : DB.EntryMethods)
      markReached(E);
  }

  void drain() {
    while (!Work.empty() || !MethodWork.empty()) {
      if (Meter.poll())
        return; // Partial result: a sound subset, tagged by the meter.
      if (!MethodWork.empty()) {
        Id P = MethodWork.front();
        MethodWork.pop_front();
        ++WorkItems;
        onReached(P);
        continue;
      }
      std::uint64_t Ev = Work.front();
      Work.pop_front();
      ++WorkItems;
      onNewHeap(static_cast<std::uint32_t>(Ev >> 32),
                static_cast<std::uint32_t>(Ev));
    }
  }

  void onReached(Id P) {
    // [STATIC] + [REACH]: static invokes of a reached method call (and
    // reach) their targets.
    for (const auto &[Invoke, Target] : StaticByMethod[P]) {
      recordCall(Invoke, Target);
      markReached(Target);
    }
    // [NEW]: allocations in a reached method seed their target class.
    for (const auto &[Heap, To] : NewByMethod[P])
      deliver(varCell(To), Heap);
    // [GLOAD]: loading a global in a reached method links the global's
    // cell into the destination class.
    for (const auto &[Global, To] : GloadByMethod[P])
      addEdge(globalCell(Global), varCell(To), NoFilter);
  }

  void onNewHeap(std::uint32_t Cell, Id Heap) {
    // Statement rows attach to variable classes only (field cells, whose
    // ids lie past the row tables, carry just inclusion edges).
    if (Cell < LoadRows.size()) {
      // [LOAD]/[IND]: the arrived heap is a base object — link its field
      // cell into the load destination.
      for (const auto &[Field, To] : LoadRows[Cell])
        addEdge(fieldCell(Heap, Field), To, NoFilter);
      // [STORE]: the arrived heap is a base object — link the stored
      // class into its field cell.
      for (const auto &[Field, From] : StoreRows[Cell])
        addEdge(From, fieldCell(Heap, Field), NoFilter);
      // [VIRT]/[VIRT-THIS]: type-filtered dispatch; never a class merge —
      // only the dispatched receiver heap flows into `this`, exactly as in
      // the context-bearing solver. This is the oversharing control.
      for (const auto &[Invoke, Sig] : VirtRows[Cell]) {
        if (HeapTypeOf[Heap] == facts::InvalidId)
          continue;
        auto It = Dispatch.find(pairKey(HeapTypeOf[Heap], Sig));
        if (It == Dispatch.end())
          continue; // No implementation: dead dispatch.
        Id Q = It->second;
        recordCall(Invoke, Q);
        markReached(Q);
        if (ThisOf[Q] != facts::InvalidId)
          deliver(varCell(ThisOf[Q]), Heap);
      }
    }
    // Inclusion edges (index loop: rows above may append to Out[Cell];
    // edges added mid-event were already flushed with this heap).
    for (std::size_t I = 0; I < Out[Cell].size(); ++I) {
      CellEdge E = Out[Cell][I];
      if (E.Filter == NoFilter || castAdmits(Heap, E.Filter))
        deliver(E.To, Heap);
    }
  }

  void recordCall(Id Invoke, Id Callee) {
    Meter.chargeDerivations();
    if (!CallSeen.insert(pairKey(Invoke, Callee)).second)
      return;
    Meter.chargeTuple();
    Calls.push_back({Invoke, Callee});
  }

  //===--- Phase 4: materialization --------------------------------------===//

  Results materialize(const Stopwatch &Timer) {
    Results R;
    R.Config = Cfg;

    std::vector<std::uint32_t> ClassOf(DB.numHeaps());
    for (std::size_t Hp = 0; Hp < DB.numHeaps(); ++Hp)
      ClassOf[Hp] = DB.classOfHeap(static_cast<std::uint32_t>(Hp));
    R.Dom = ctx::makeDomain(Cfg, std::move(ClassOf));
    R.ReachCtxts =
        std::make_shared<Interner<ctx::CtxtVec, ctx::CtxtVecHash>>();
    const ctx::TransformId Eps = R.Dom->record(ctx::CtxtVec());
    const std::uint32_t EmptyCtxt = R.ReachCtxts->intern(ctx::CtxtVec());

    // pts: every variable reports its class's set (sorted for
    // deterministic output independent of arrival order).
    for (Id V = 0; V < static_cast<Id>(DB.numVars()); ++V) {
      std::vector<Id> Heaps = sortedHeaps(UF.find(V));
      for (Id H : Heaps)
        R.Pts.push_back({V, H, Eps});
    }
    // hpts: the field cells.
    for (std::size_t I = 0; I < FieldCells.size(); ++I) {
      const auto &[Base, Field] = FieldCells[I];
      std::uint32_t Cell =
          static_cast<std::uint32_t>(DB.numVars() + DB.numGlobals() + I);
      for (Id H : sortedHeaps(Cell))
        R.Hpts.push_back({Base, Field, H, Eps});
    }
    // hload: one row per (base heap, field, destination) a load observes.
    {
      std::unordered_set<std::uint64_t> Seen;
      for (const auto &F : DB.Loads)
        for (Id G : sortedHeaps(UF.find(F.Base)))
          if (Seen.insert(hashCombine(pairKey(G, F.Field), F.To)).second)
            R.Hload.push_back({G, F.Field, F.To, Eps});
    }
    for (const auto &[Invoke, Callee] : Calls)
      R.Call.push_back({Invoke, Callee, Eps});
    for (Id P = 0; P < static_cast<Id>(DB.numMethods()); ++P)
      if (Reached[P])
        R.Reach.push_back({P, EmptyCtxt});
    for (Id G = 0; G < static_cast<Id>(DB.numGlobals()); ++G)
      for (Id H : sortedHeaps(globalCell(G)))
        R.Gpts.push_back({G, H, Eps});

    R.countRelations();
    R.Stat.DomainSize = R.Dom->size();
    R.Stat.DomainTraffic = R.Dom->counters();
    R.Stat.WorkItems = WorkItems;
    R.Stat.Seconds = Timer.seconds();
    R.Stat.Term = Meter.reason();
    R.Stat.Progress.Iterations = WorkItems;
    R.Stat.Progress.Derivations =
        static_cast<std::size_t>(Meter.derivations());
    R.Stat.Progress.PendingWork = Work.size() + MethodWork.size();
    return R;
  }

  std::vector<Id> sortedHeaps(std::uint32_t Cell) const {
    std::vector<Id> Heaps(Pts[Cell].begin(), Pts[Cell].end());
    std::sort(Heaps.begin(), Heaps.end());
    return Heaps;
  }

  //===--- State ----------------------------------------------------------===//

  const FactDB &DB;
  ctx::Config Cfg;
  BudgetMeter Meter;
  UnionFind UF;
  BindingPairs Binds;

  std::uint32_t NextCell = 0;
  std::vector<std::unordered_set<Id>> Pts;
  std::vector<std::vector<CellEdge>> Out;
  std::unordered_map<std::uint64_t, std::uint32_t> FieldCellOf;
  std::vector<std::pair<Id, Id>> FieldCells; // (heap, field) per field cell

  std::vector<std::vector<std::pair<Id, std::uint32_t>>> LoadRows, StoreRows;
  std::vector<std::vector<std::pair<Id, Id>>> VirtRows;
  std::vector<std::vector<std::pair<Id, Id>>> StaticByMethod, NewByMethod,
      GloadByMethod;

  std::vector<Id> HeapTypeOf, ThisOf;
  std::unordered_map<std::uint64_t, Id> Dispatch;
  std::unordered_set<std::uint64_t> SubtypePairs;

  std::vector<bool> Reached;
  std::deque<std::uint64_t> Work; // (cell << 32) | heap
  std::deque<Id> MethodWork;
  std::unordered_set<std::uint64_t> CallSeen;
  std::vector<std::pair<Id, Id>> Calls;
  std::size_t WorkItems = 0;
};

} // namespace

FactDB analysis::unifyView(const FactDB &DB) {
  FactDB View = DB;
  std::unordered_set<std::uint64_t> Have;
  for (const auto &A : DB.Assigns)
    Have.insert(pairKey(A.From, A.To));
  auto AddBoth = [&](Id A, Id B) {
    if (A != B && Have.insert(pairKey(A, B)).second)
      View.Assigns.push_back({A, B});
    if (A != B && Have.insert(pairKey(B, A)).second)
      View.Assigns.push_back({B, A});
  };
  for (const auto &A : DB.Assigns)
    AddBoth(A.From, A.To); // Symmetrize the originals.
  BindingPairs Binds(DB);
  forEachChaBinding(DB, [&](Id Invoke, Id Callee) {
    Binds.forEachPair(Invoke, Callee, AddBoth);
  });
  return View;
}

Results analysis::solveUnify(const FactDB &DB, const ctx::Config &Cfg,
                             const SolverOptions &Opts) {
  assert(Cfg.SolveMode == ctx::Mode::Unify && "not a unify configuration");
  assert(Cfg.validate().empty() && "invalid analysis configuration");
  UnifySolver S(DB, Cfg, Opts);
  return S.run();
}
